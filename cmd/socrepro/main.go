// Command socrepro regenerates every table and figure of the paper on the
// simulated substrates.
//
// Usage:
//
//	socrepro -exp all|fig2|tab2|fig3|fig4|fig5 [-seed N] [-snippets N] [-workers N]
//	         [-csv dir] [-cpuprofile f] [-memprofile f]
//
// -snippets caps the per-application snippet count (0 = paper-scale runs);
// -workers bounds the experiment engine's worker pool (default NumCPU,
// 1 = fully serial reference — outputs are bit-identical either way); -csv
// additionally writes each experiment's raw series to <dir>/<exp>.csv
// for external plotting. -cpuprofile/-memprofile write pprof profiles of
// the run (see the Performance section of the README); profile the decision
// hot path with e.g. `-exp fig4 -workers 1 -cpuprofile cpu.out`.
//
// Every run computes from scratch: the Oracle labels, the offline IL
// training and the explicit-NMPC surface fit. At paper scale the whole run
// takes about 2 s serially and 1.5 s with two workers (see "Regenerating
// the paper" in the README).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"socrm/internal/experiments"
	"socrm/internal/metrics"
)

// csvDir is the optional output directory for raw experiment data.
var csvDir string

// writeCSV persists one experiment's rows when -csv is set.
func writeCSV(name string, header []string, rows [][]string) {
	if csvDir == "" {
		return
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "socrepro:", err)
		return
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "socrepro:", err)
		return
	}
	defer f.Close()
	if err := metrics.WriteCSV(f, header, rows); err != nil {
		fmt.Fprintln(os.Stderr, "socrepro:", err)
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// startProfiles begins CPU profiling (when requested) and returns the
// function that finalizes both profiles; memory is snapshotted at stop so
// the heap profile reflects the run, not flag parsing. Error-exit paths
// skip it — a partial run's profile would mislead more than help.
func startProfiles(cpuPath, memPath string) func() {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "socrepro:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "socrepro:", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "socrepro:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "socrepro:", err)
			}
		}
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig2, tab2, fig3, fig4, fig5")
	seed := flag.Int64("seed", 42, "experiment seed")
	snippets := flag.Int("snippets", 0, "per-app snippet cap (0 = full)")
	workers := flag.Int("workers", runtime.NumCPU(), "experiment-engine worker pool size (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	flag.StringVar(&csvDir, "csv", "", "directory for raw CSV output (empty = none)")
	flag.Parse()

	// Reject nonsense sizes up front: a negative snippet cap would silently
	// mean "no cap" and a negative worker count would silently fall back to
	// GOMAXPROCS, hiding typos like "-workers -1".
	if *snippets < 0 {
		fmt.Fprintf(os.Stderr, "socrepro: -snippets must be >= 0 (0 = full), got %d\n", *snippets)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "socrepro: -workers must be >= 0 (0 = all CPUs), got %d\n", *workers)
		os.Exit(2)
	}
	opt := experiments.Options{Seed: *seed, MaxSnippets: *snippets, Workers: *workers}
	var study *experiments.Study
	getStudy := func() *experiments.Study {
		if study == nil {
			var err error
			study, err = experiments.NewStudy(opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "socrepro:", err)
				os.Exit(1)
			}
		}
		return study
	}

	run := map[string]func(){
		"fig2": func() { runFig2(*seed) },
		"tab2": func() { runTable2(getStudy()) },
		"fig3": func() { runFig3(getStudy()) },
		"fig4": func() { runFig4(getStudy()) },
		"fig5": func() { runFig5(*seed, *workers) },
	}
	f, okExp := run[*exp]
	if *exp != "all" && !okExp {
		fmt.Fprintf(os.Stderr, "socrepro: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	if *exp == "all" {
		for _, name := range []string{"fig2", "tab2", "fig3", "fig4", "fig5"} {
			run[name]()
			fmt.Println()
		}
	} else {
		f()
	}
	stopProfiles()
}

func runFig2(seed int64) {
	fmt.Println("=== Figure 2: online frame-time prediction (Nenamark2, RLS) ===")
	res := experiments.Fig2(seed)
	fmt.Printf("frames: %d   MAPE after warm-up: %.2f%% (paper: <5%%)\n", len(res.Points), 100*res.MAPE)
	rows := make([][]string, 0, len(res.Points))
	for _, p := range res.Points {
		rows = append(rows, []string{strconv.Itoa(p.Frame), ftoa(p.FreqMHz), ftoa(p.Measured), ftoa(p.Predicted)})
	}
	writeCSV("fig2", []string{"frame", "freq_mhz", "measured_s", "predicted_s"}, rows)
	var meas, pred, xs []float64
	for i, p := range res.Points {
		if i%10 != 0 {
			continue
		}
		xs = append(xs, float64(p.Frame))
		meas = append(meas, p.Measured*1000)
		pred = append(pred, p.Predicted*1000)
	}
	metrics.PlotASCII(os.Stdout, "frame time (ms) vs frame", []metrics.Series{
		{Name: "measured", X: xs, Y: meas},
		{Name: "predicted", X: xs, Y: pred},
	}, 72, 14)
}

func runTable2(s *experiments.Study) {
	fmt.Println("=== Table II: offline IL energy normalized to Oracle ===")
	t := &metrics.Table{Header: []string{"App", "Suite", "Energy/Oracle"}}
	var rows [][]string
	for _, r := range s.Table2() {
		t.AddRow(r.App, r.Suite, r.NormEnergy)
		rows = append(rows, []string{r.App, r.Suite, ftoa(r.NormEnergy)})
	}
	t.Render(os.Stdout)
	writeCSV("tab2", []string{"app", "suite", "energy_vs_oracle"}, rows)
}

func runFig3(s *experiments.Study) {
	fmt.Println("=== Figure 3: convergence on unseen Cortex+PARSEC sequence ===")
	res := s.Fig3()
	if res.ILConvergeTime >= 0 {
		fmt.Printf("online-IL reaches 95%% Oracle agreement at t=%.1fs (%.1f%% of the %.1fs sequence)\n",
			res.ILConvergeTime, 100*res.ILConvergeTime/res.TotalTime, res.TotalTime)
	} else {
		fmt.Println("online-IL did not reach 95% agreement")
	}
	fmt.Printf("final accuracy: online-IL %.1f%%, RL %.1f%% (RL converged: %v)\n",
		res.ILFinalAcc, res.RLFinalAcc, res.RLConverged)
	toSeries := func(name string, pts []experiments.AccuracyPoint) metrics.Series {
		s := metrics.Series{Name: name}
		for i, p := range pts {
			if i%5 != 0 {
				continue
			}
			s.X = append(s.X, p.Time)
			s.Y = append(s.Y, p.Accuracy)
		}
		return s
	}
	metrics.PlotASCII(os.Stdout, "accuracy w.r.t. Oracle (%) vs time (s)", []metrics.Series{
		toSeries("online-il", res.IL), toSeries("rl", res.RL),
	}, 72, 14)
	var rows [][]string
	for i := range res.IL {
		row := []string{ftoa(res.IL[i].Time), ftoa(res.IL[i].Accuracy), "", ""}
		if i < len(res.RL) {
			row[2], row[3] = ftoa(res.RL[i].Time), ftoa(res.RL[i].Accuracy)
		}
		rows = append(rows, row)
	}
	writeCSV("fig3", []string{"il_time_s", "il_acc_pct", "rl_time_s", "rl_acc_pct"}, rows)
}

func runFig4(s *experiments.Study) {
	fmt.Println("=== Figure 4: energy vs Oracle per benchmark ===")
	t := &metrics.Table{Header: []string{"App", "Group", "Online-IL", "RL"}}
	var worstIL, worstRL float64
	var rows [][]string
	for _, r := range s.Fig4() {
		t.AddRow(r.App, r.Group, r.IL, r.RL)
		rows = append(rows, []string{r.App, r.Group, ftoa(r.IL), ftoa(r.RL)})
		if r.IL > worstIL {
			worstIL = r.IL
		}
		if r.RL > worstRL {
			worstRL = r.RL
		}
	}
	t.Render(os.Stdout)
	writeCSV("fig4", []string{"app", "group", "online_il", "rl"}, rows)
	fmt.Printf("worst case: online-IL %.2fx, RL %.2fx (paper: IL ~1.0, RL up to 1.4x)\n", worstIL, worstRL)
}

func runFig5(seed int64, workers int) {
	fmt.Println("=== Figure 5: explicit NMPC energy savings vs baseline ===")
	opt := experiments.DefaultFig5Options()
	opt.Seed = seed
	opt.Workers = workers
	res, err := experiments.Fig5(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "socrepro:", err)
		os.Exit(1)
	}
	t := &metrics.Table{Header: []string{"Title", "GPU %", "PKG %", "PKG+DRAM %"}}
	var rows [][]string
	for _, r := range res.Rows {
		t.AddRow(r.App, 100*r.GPUSavings, 100*r.PKGSavings, 100*r.PKGDRAMSav)
		rows = append(rows, []string{r.App, ftoa(r.GPUSavings), ftoa(r.PKGSavings), ftoa(r.PKGDRAMSav)})
	}
	writeCSV("fig5", []string{"title", "gpu_savings", "pkg_savings", "pkg_dram_savings"}, rows)
	t.AddRow(res.Average.App, 100*res.Average.GPUSavings, 100*res.Average.PKGSavings, 100*res.Average.PKGDRAMSav)
	t.Render(os.Stdout)
	fmt.Printf("performance overhead (deadline misses): %.2f%% (paper: 0.4%%)\n", 100*res.PerfOverhead)
}
