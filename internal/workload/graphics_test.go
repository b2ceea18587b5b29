package workload

import "testing"

func TestFig5Traces(t *testing.T) {
	traces := Fig5Traces(30, 42)
	if len(traces) != 10 {
		t.Fatalf("Figure 5 has %d titles, want 10", len(traces))
	}
	for i, tr := range traces {
		if tr.Name != fig5Specs[i].name {
			t.Fatalf("trace %d name %q != %q", i, tr.Name, fig5Specs[i].name)
		}
		if tr.TargetFPS != 30 {
			t.Fatalf("%s: fps %v", tr.Name, tr.TargetFPS)
		}
		if len(tr.Frames) == 0 {
			t.Fatalf("%s: empty trace", tr.Name)
		}
		for j, f := range tr.Frames {
			if f.Load <= 0 || f.Load > 1 {
				t.Fatalf("%s[%d]: load %v out of (0,1]", tr.Name, j, f.Load)
			}
			if f.MemRatio <= 0 || f.MemRatio > 0.7 {
				t.Fatalf("%s[%d]: mem ratio %v", tr.Name, j, f.MemRatio)
			}
		}
	}
}

func TestTraceLoadOrdering(t *testing.T) {
	// The savings spread of Figure 5 needs the heavy and light anchors in
	// the right order.
	traces := Fig5Traces(30, 42)
	load := map[string]float64{}
	for _, tr := range traces {
		sum := 0.0
		for _, f := range tr.Frames {
			sum += f.Load
		}
		load[tr.Name] = sum / float64(len(tr.Frames))
	}
	if load["AngryBirds"] <= load["GFXBench-trex"] {
		t.Fatalf("AngryBirds (%v) must be the heaviest title", load["AngryBirds"])
	}
	if load["SharkDash"] >= load["FruitNinja"] {
		t.Fatalf("SharkDash (%v) must be the lightest title", load["SharkDash"])
	}
}

func TestBudget(t *testing.T) {
	tr := Nenamark2(30, 1)
	if b := tr.Budget(); b != 1.0/30 {
		t.Fatalf("budget = %v", b)
	}
}

func TestTraceByName(t *testing.T) {
	tr, err := TraceByName("SharkDash", 60, 1)
	if err != nil || tr.Name != "SharkDash" {
		t.Fatalf("TraceByName: %v %v", tr.Name, err)
	}
	if _, err := TraceByName("Nenamark2", 30, 1); err != nil {
		t.Fatalf("Nenamark2 lookup failed: %v", err)
	}
	if _, err := TraceByName("nope", 30, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := Nenamark2(30, 5)
	b := Nenamark2(30, 5)
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("frame %d differs", i)
		}
	}
}
