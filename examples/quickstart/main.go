// Quickstart: simulate a benchmark on the big.LITTLE platform, build the
// Oracle, train an offline imitation-learning policy, and compare the two —
// the core loop of the paper in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"socrm/internal/control"
	"socrm/internal/il"
	"socrm/internal/oracle"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

func main() {
	// The platform: an Exynos 5422-like SoC with 4 little + 4 big cores
	// and 4940 runtime configurations.
	platform := soc.NewXU3()
	fmt.Printf("platform: %d little OPPs, %d big OPPs, %d configurations\n",
		len(platform.LittleOPPs), len(platform.BigOPPs), platform.NumConfigs())

	// A benchmark application segmented into fixed-instruction snippets.
	app, err := workload.ByName("FFT", 42)
	if err != nil {
		log.Fatal(err)
	}
	app.Snippets = app.Snippets[:40]
	fmt.Printf("workload: %s (%d snippets of %g instructions)\n",
		app.Name, len(app.Snippets), workload.SnippetInstructions)

	// The Oracle: per-snippet exhaustive sweep for minimum energy.
	orc := oracle.New(platform, oracle.Energy)
	labels := orc.LabelApp(app)
	var oracleEnergy float64
	for _, l := range labels {
		oracleEnergy += l.Res.Energy
	}
	fmt.Printf("oracle: best config for snippet 0 is %v\n", labels[0].Cfg)

	// Offline IL: imitate the Oracle with a small neural network.
	ds := il.BuildDataset(platform, orc, []workload.Application{app})
	policy, err := il.TrainMLPPolicy(platform, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy: %d parameters (%d bytes as float64)\n",
		policy.Net.NumParams(), policy.Net.NumParams()*8)

	// Closed loop: run the app under the learned policy and two governors.
	seq := workload.NewSequence(app)
	start := platform.MaxPerfConfig()
	ilRun := control.Run(platform, seq, &il.OfflineDecider{P: platform, Policy: policy}, start)
	maxRun := control.Run(platform, seq, control.StaticDecider{Cfg: platform.MaxPerfConfig(), Label: "max"}, start)

	fmt.Println()
	fmt.Printf("%-12s %10s %10s %12s\n", "policy", "energy(J)", "time(s)", "vs oracle")
	fmt.Printf("%-12s %10.3f %10.3f %12s\n", "oracle", oracleEnergy, 0.0, "1.000x")
	fmt.Printf("%-12s %10.3f %10.3f %11.3fx\n", "offline-il", ilRun.Energy, ilRun.Time, ilRun.Energy/oracleEnergy)
	fmt.Printf("%-12s %10.3f %10.3f %11.3fx\n", "max-perf", maxRun.Energy, maxRun.Time, maxRun.Energy/oracleEnergy)
}
