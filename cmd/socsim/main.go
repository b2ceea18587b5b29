// Command socsim runs one application (or a whole suite) on the big.LITTLE
// simulator under a chosen policy and reports energy, runtime and the gap
// to the Oracle.
//
// Usage:
//
//	socsim -app Kmeans -policy online-il
//	socsim -app all -policy ondemand
//
// Policies: oracle, offline-il, offline-tree, online-il, rl, ondemand,
// interactive, performance, powersave.
//
// -snippets caps each application's snippet count (default 60, 0 = full).
// Building the study (Oracle labels and the trained offline policies)
// comes first and takes about a second at full scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"socrm/internal/control"
	"socrm/internal/experiments"
	"socrm/internal/governor"
	"socrm/internal/il"
	"socrm/internal/metrics"
	"socrm/internal/workload"
)

func main() {
	appName := flag.String("app", "FFT", "application name or 'all'")
	policy := flag.String("policy", "online-il", "control policy")
	seed := flag.Int64("seed", 42, "workload seed")
	snippets := flag.Int("snippets", 60, "per-app snippet cap (0 = full)")
	flag.Parse()

	// Validate flags before any expensive work: an unknown policy must not
	// render a partial table first, and a negative snippet cap must not
	// silently mean "no cap".
	if *snippets < 0 {
		fmt.Fprintf(os.Stderr, "socsim: -snippets must be >= 0 (0 = full), got %d\n", *snippets)
		os.Exit(2)
	}
	if !knownPolicy(*policy) {
		fmt.Fprintf(os.Stderr, "socsim: unknown policy %q (want one of %v)\n", *policy, policyNames())
		os.Exit(2)
	}
	study, err := experiments.NewStudy(experiments.Options{Seed: *seed, MaxSnippets: *snippets})
	if err != nil {
		fmt.Fprintln(os.Stderr, "socsim:", err)
		os.Exit(1)
	}

	var apps []workload.Application
	if *appName == "all" {
		apps = append(apps, study.MiBench...)
		apps = append(apps, study.Cortex...)
		apps = append(apps, study.Parsec...)
	} else {
		app, err := workload.ByName(*appName, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "socsim:", err)
			os.Exit(1)
		}
		if *snippets > 0 && len(app.Snippets) > *snippets {
			app.Snippets = app.Snippets[:*snippets]
		}
		apps = []workload.Application{app}
	}

	t := &metrics.Table{Header: []string{"App", "Policy", "Energy(J)", "Time(s)", "vs Oracle"}}
	for _, app := range apps {
		dec, err := makeDecider(study, *policy)
		if err != nil { // unreachable after the up-front validation
			fmt.Fprintln(os.Stderr, "socsim:", err)
			os.Exit(2)
		}
		seq := workload.NewSequence(app)
		orcE := study.OracleEnergy(app.Name)
		if dec == nil { // the Oracle itself
			t.AddRow(app.Name, "oracle", orcE, "-", 1.0)
			continue
		}
		start := study.P.Clamp(study.P.MaxPerfConfig())
		run := control.Run(study.P, seq, dec, start)
		t.AddRow(app.Name, dec.Name(), run.Energy, run.Time, run.Energy/orcE)
	}
	t.Render(os.Stdout)
}

// policyMakers is the single source of truth for what -policy accepts:
// validation, the usage error and dispatch all derive from it. A nil
// decider means "report the Oracle".
var policyMakers = map[string]func(*experiments.Study) control.Decider{
	"oracle": func(*experiments.Study) control.Decider { return nil },
	"offline-il": func(s *experiments.Study) control.Decider {
		return &il.OfflineDecider{P: s.P, Policy: s.OfflinePolicy().Clone()}
	},
	"offline-tree": func(s *experiments.Study) control.Decider {
		return &il.OfflineDecider{P: s.P, Policy: s.OfflineTreePolicy()}
	},
	"online-il":   func(s *experiments.Study) control.Decider { return s.FreshOnlineIL() },
	"rl":          func(s *experiments.Study) control.Decider { return s.FreshQTable(6) },
	"ondemand":    func(s *experiments.Study) control.Decider { return governor.NewOndemand(s.P) },
	"interactive": func(s *experiments.Study) control.Decider { return governor.NewInteractive(s.P) },
	"performance": func(s *experiments.Study) control.Decider { return governor.Performance{P: s.P} },
	"powersave":   func(s *experiments.Study) control.Decider { return governor.Powersave{P: s.P} },
}

// knownPolicy reports whether makeDecider will accept the name.
func knownPolicy(name string) bool {
	_, isKnown := policyMakers[name]
	return isKnown
}

// policyNames returns the accepted policy names, sorted, for the usage
// error.
func policyNames() []string {
	names := make([]string, 0, len(policyMakers))
	for n := range policyMakers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// makeDecider builds a fresh decider per run; nil means "report the Oracle".
func makeDecider(s *experiments.Study, name string) (control.Decider, error) {
	mk, isKnown := policyMakers[name]
	if !isKnown {
		return nil, fmt.Errorf("unknown policy %q", name)
	}
	return mk(s), nil
}
