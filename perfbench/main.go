// Command perfbench is the repository's benchmark. It drives the governor
// daemon and the paper pipeline from outside, through their public Go
// APIs and HTTP surfaces, on one of two workloads:
//
//	fleet-routed  one routed step per op, router -> two replicating backends
//	fleet-learn   one fleet-wide batch per op, online-IL learning inline
//
// It checks every op's output, prints each metric with its unit, and ends
// with one JSON line. --trace 0 reports the end-to-end metrics; --trace 1
// spends half the run untraced and half traced and reports the per-layer
// metrics; on fleet-learn it also times the stages of the paper pipeline.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tmp      string // scratch space inside the checkout
}

// report is one run's result.
type report struct {
	latN                               int
	latP50, latTail, tailPct           float64
	throughput, cpuUS, allocs, allocKB float64
	energyX, stateKB, setupS           float64
	peakHeapMB, stealPct, okRatio      float64
	attempted, failed, tailWindows     int
	firstErr                           error
	notes                              []string
	layers                             map[string]float64
	spans                              []span
}

// fill sets the end-to-end metrics shared by every workload from one
// untraced phase.
func (r *report) fill(ph *phase, w window) {
	r.latN = ph.lat.n
	r.latP50 = ph.lat.median()
	r.tailPct, r.latTail, r.tailWindows = ph.tail.value()
	r.throughput = float64(w.ops) / w.wall.Seconds()
	r.cpuUS = w.perOp(float64(w.cpu.Nanoseconds()) / 1e3)
	r.allocs = w.perOp(float64(w.allocObjs))
	r.allocKB = w.perOp(float64(w.allocB) / 1024)
	r.peakHeapMB = w.peakHeapM
	r.stealPct = w.stealPct
	r.count(ph)
	r.notes = append(r.notes, w.String())
}

// count adds a timed phase's ops and failed checks to the run's.
func (r *report) count(ph *phase) {
	r.attempted += ph.ops
	r.failed += ph.failed
	if r.firstErr == nil {
		r.firstErr = ph.firstErr
	}
	r.okRatio = float64(r.attempted-r.failed) / float64(max(r.attempted, 1))
}

// correct reports whether every op of the run passed every check.
func (r *report) correct() bool { return r.failed == 0 && r.firstErr == nil }

// checkEnergy applies the Oracle bound to an energy_vs_oracle_x figure; a
// breach fails the run (every op shares the figure, so all of them count).
func (r *report) checkEnergy(x float64) {
	if err := checkEnergyRatio(x); err != nil {
		r.failed = r.attempted
		r.okRatio = 0
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// addRuntime adds the process-level per-layer metrics of a traced phase.
func addRuntime(l map[string]float64, w window, tracedP50, untracedP50 float64) {
	l["runtime.gc_cycles"] = float64(w.gcCycles)
	l["runtime.gc_pause_us"] = float64(w.gcPause.Nanoseconds()) / 1e3
	l["host.steal_pct"] = w.stealPct
	if untracedP50 > 0 {
		l["trace.overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
	}
}

type metric struct{ name, unit string }

// endToEnd and perLayer list the reported metrics in BENCHMARK.json order.
var endToEnd = []metric{
	{"lat_p50_us", "us"}, {"throughput_per_s", "1/s"},
	{"cpu_us_per_op", "us"}, {"allocs_per_op", "count"}, {"alloc_kb_per_op", "KB"},
	{"energy_vs_oracle_x", "x"}, {"state_kb", "KB"}, {"ok_ratio", "ratio"},
	{"setup_s", "s"}, {"peak_heap_mb", "MB"},
}

var perLayer = []metric{
	{"op.lat_tail_us", "us"},
	{"client.execute_us", "us"}, {"client.codec_us", "us"}, {"client.transport_us", "us"},
	{"cluster.router.self_us", "us"}, {"cluster.router.retries", "count"}, {"cluster.router.proxy_errors", "count"},
	{"serve.http.self_us", "us"},
	{"serve.decide_us", "us"}, {"serve.decisions", "count"}, {"serve.step_errors", "count"},
	{"serve.learner.updates", "count"},
	{"serve.checkpoint.flush_us", "us"}, {"serve.checkpoint.records", "count"}, {"snap.envelope_bytes", "bytes"},
	{"ckpt.bytes_appended", "bytes"}, {"cluster.replicator.pushed", "count"}, {"cluster.replicator.dropped", "count"},
	{"cluster.replicator.errors", "count"}, {"cluster.replica_put_us", "us"},
	{"serve.session.create_us", "us"}, {"serve.session.close_us", "us"},
	{"serve.overhead_pct", "%"}, {"nmpc.gpu_save_pct", "%"},
	{"experiments.new_study_ms", "ms"}, {"oracle.label_ms", "ms"}, {"experiments.table2_ms", "ms"},
	{"experiments.fig4_ms", "ms"}, {"experiments.fig5_ms", "ms"}, {"experiments.fig2_ms", "ms"},
	{"repro.pass_ms", "ms"}, {"experiments.fig4_il_x", "x"}, {"experiments.il_state_bytes", "bytes"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_us", "us"}, {"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
}

func (r *report) endToEndValue(name string) float64 {
	switch name {
	case "lat_p50_us":
		return r.latP50
	case "throughput_per_s":
		return r.throughput
	case "cpu_us_per_op":
		return r.cpuUS
	case "allocs_per_op":
		return r.allocs
	case "alloc_kb_per_op":
		return r.allocKB
	case "energy_vs_oracle_x":
		return r.energyX
	case "state_kb":
		return r.stateKB
	case "ok_ratio":
		return r.okRatio
	case "setup_s":
		return r.setupS
	case "peak_heap_mb":
		return r.peakHeapMB
	}
	panic("unknown metric " + name)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	// One P: the client, router, backends and their background work share
	// one CPU of the two-vCPU host. With two, every hand-off between them
	// wakes an idle P that spins, and the process competes with other
	// tenants for both vCPUs; both made per-op cost follow the host's load.
	runtime.GOMAXPROCS(1)
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "fleet-routed or fleet-learn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	build := ".bench_build"
	cfg.tmp = filepath.Join(build, "tmp")
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return err
	}
	var rep *report
	var err error
	switch cfg.workload {
	case fleetRouted.name:
		rep, err = runFleet(fleetRouted, cfg)
	case fleetLearn.name:
		rep, err = runFleet(fleetLearn, cfg)
	default:
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}

	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s seed %d: %s\n", cfg.workload, cfg.seed, strings.Join(rep.notes, "; "))
	fmt.Printf("  %-28s %14.4f %%   (diagnostic, untraced phase)\n", "host.steal_pct", rep.stealPct)
	fmt.Printf("  %-28s %14.4f us  (%s per window of %d ops, median of %d windows; untraced phase, not gated)\n",
		"lat_tail_us", rep.latTail, pctName(rep.tailPct), min(rep.latN, tailWindow), rep.tailWindows)
	if cfg.trace {
		fmt.Printf("  untraced lat_p50_us %.4f us; the traced phase's is trace.overhead_pct above it\n", rep.latP50)
		for _, m := range perLayer {
			v := rep.layers[m.name]
			res.Metrics[m.name] = value{v, m.unit}
			fmt.Printf("  %-28s %14.4f %s\n", m.name, v, m.unit)
		}
		path := filepath.Join(build, fmt.Sprintf("spans-%s-%d.tsv", cfg.workload, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return err
		}
		fmt.Printf("  %d spans written to %s\n", len(rep.spans), path)
	} else {
		for _, m := range endToEnd {
			v := rep.endToEndValue(m.name)
			res.Metrics[m.name] = value{v, m.unit}
			note := ""
			switch m.name {
			case "lat_p50_us":
				note = fmt.Sprintf("(median of %d ops)", rep.latN)
			case "throughput_per_s":
				note = "(ops over the phase's wall time)"
			}
			fmt.Printf("  %-28s %14.4f %-6s %s\n", m.name, v, m.unit, note)
		}
	}
	if rep.firstErr != nil {
		fmt.Printf("  FAILED %d of %d ops; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}
