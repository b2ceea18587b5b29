// Adaptive DVFS: the paper's headline scenario. An imitation-learning
// policy trained only on Mi-Bench-like applications is deployed on a
// memory-bound application it has never seen; the model-guided online-IL
// loop (Section IV-A3) relabels decisions with adaptive power/performance
// models and retrains the policy at runtime until it matches the Oracle.
//
//	go run ./examples/adaptive-dvfs
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
	platform := soc.NewXU3()
	orc := oracle.New(platform, oracle.Energy)

	// Design time: train on the compute-bound embedded suite.
	train := workload.MiBench(42)
	for i := range train {
		train[i].Snippets = train[i].Snippets[:40]
	}
	ds := il.BuildDataset(platform, orc, train)
	policy, err := il.TrainMLPPolicy(platform, ds)
	if err != nil {
		log.Fatal(err)
	}
	models := il.NewOnlineModels(platform)
	models.WarmStart(append(train, workload.Calibration()), il.WarmStartConfigs(platform))

	// Runtime: an unseen memory-bound application.
	app, err := workload.ByName("Kmeans", 42)
	if err != nil {
		log.Fatal(err)
	}
	app.Snippets = app.Snippets[:80]
	labels := orc.LabelApp(app)
	var oracleEnergy float64
	for _, l := range labels {
		oracleEnergy += l.Res.Energy
	}

	// Frozen offline policy first.
	seq := workload.NewSequence(app)
	start := soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 2}
	frozen := control.Run(platform, seq, &il.OfflineDecider{P: platform, Policy: policy.Clone()}, start)

	// Online-IL second, tracking Oracle agreement as it adapts.
	oil := il.NewOnlineIL(platform, policy.Clone(), models)
	agreements := 0
	decisions := 0
	run := control.RunWithHook(platform, seq, oil, start, func(st control.State, _ soc.Config) {
		decisions++
		pol := oil.PolicyConfig(st)
		want := labels[st.Snippet+1].Cfg
		if pol.NBig == want.NBig && abs(pol.LittleFreqIdx-want.LittleFreqIdx) <= 1 {
			agreements++
		}
		if decisions%20 == 0 {
			fmt.Printf("  after %2d decisions: policy chooses %v (oracle %v), %d policy updates\n",
				decisions, pol, want, oil.Updates())
		}
	})

	fmt.Println()
	fmt.Printf("%-12s %12s %10s\n", "policy", "energy(J)", "vs oracle")
	fmt.Printf("%-12s %12.3f %9.3fx\n", "oracle", oracleEnergy, 1.0)
	fmt.Printf("%-12s %12.3f %9.3fx   <- frozen offline policy\n", "offline-il", frozen.Energy, frozen.Energy/oracleEnergy)
	fmt.Printf("%-12s %12.3f %9.3fx   <- adapts at runtime\n", "online-il", run.Energy, run.Energy/oracleEnergy)
	fmt.Printf("\npolicy updates: %d, final Oracle agreement over the run: %.0f%%\n",
		oil.Updates(), 100*float64(agreements)/float64(decisions))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
