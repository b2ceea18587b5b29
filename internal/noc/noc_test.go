package noc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeshTopology(t *testing.T) {
	m := NewMesh(4, 4)
	if m.Nodes() != 16 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	x, y := m.XY(7)
	if x != 3 || y != 1 {
		t.Fatalf("XY(7) = %d,%d", x, y)
	}
	if m.Node(3, 1) != 7 {
		t.Fatal("Node inverse wrong")
	}
}

// xyRoute walks NextHop from src to dst and returns the channel ids the
// packet traverses, the path the simulator's packets take.
func xyRoute(m *Mesh, src, dst int) []int {
	var chans []int
	cur := src
	for cur != dst {
		d, next, ok := m.NextHop(cur, dst)
		if !ok {
			break
		}
		chans = append(chans, m.ChannelID(cur, d))
		cur = next
	}
	return chans
}

func TestXYRouting(t *testing.T) {
	m := NewMesh(4, 4)
	// XY: horizontal first, then vertical.
	route := xyRoute(m, m.Node(0, 0), m.Node(2, 2))
	if len(route) != 4 {
		t.Fatalf("route length %d, want 4 hops", len(route))
	}
	if m.Hops(m.Node(0, 0), m.Node(2, 2)) != 4 {
		t.Fatal("hops wrong")
	}
	// Route to self is empty.
	if len(xyRoute(m, 5, 5)) != 0 {
		t.Fatal("self route should be empty")
	}
}

func TestRouteLengthEqualsHopsProperty(t *testing.T) {
	m := NewMesh(5, 3)
	f := func(a, b uint8) bool {
		s := int(a) % m.Nodes()
		d := int(b) % m.Nodes()
		return len(xyRoute(m, s, d)) == m.Hops(s, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDestProbNormalized(t *testing.T) {
	m := NewMesh(4, 4)
	for _, p := range []Pattern{Uniform, Transpose, Hotspot} {
		for s := 0; s < m.Nodes(); s++ {
			sum := 0.0
			for d := 0; d < m.Nodes(); d++ {
				pr := m.destProb(p, s, d)
				if pr < 0 {
					t.Fatalf("%v: negative probability", p)
				}
				sum += pr
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%v: probabilities from %d sum to %v", p, s, sum)
			}
		}
	}
}

func TestSimulateDeliversAtLowLoad(t *testing.T) {
	m := NewMesh(4, 4)
	res := m.Simulate(SimParams{
		Lambda: 0.02, Pattern: Uniform, Classes: 1,
		Cycles: 5000, Warmup: 1000, Seed: 1,
	})
	if res.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	// At very low load, latency approaches hops+1 with almost no queueing.
	a := m.Analytical(0.02, Uniform, 1, nil)
	if res.AvgLatency < a.AvgHops {
		t.Fatalf("latency %v below hop count %v", res.AvgLatency, a.AvgHops)
	}
	if res.AvgLatency > 2*a.AvgLatency {
		t.Fatalf("low-load simulated latency %v too far above analytical %v", res.AvgLatency, a.AvgLatency)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	m := NewMesh(4, 4)
	lo := m.Simulate(SimParams{Lambda: 0.02, Pattern: Uniform, Classes: 1, Cycles: 8000, Warmup: 2000, Seed: 2})
	hi := m.Simulate(SimParams{Lambda: 0.12, Pattern: Uniform, Classes: 1, Cycles: 8000, Warmup: 2000, Seed: 2})
	if hi.AvgLatency <= lo.AvgLatency {
		t.Fatalf("latency must grow with load: %v vs %v", lo.AvgLatency, hi.AvgLatency)
	}
	if hi.MaxChanUtil <= lo.MaxChanUtil {
		t.Fatal("utilization must grow with load")
	}
}

func TestPriorityClassesOrdered(t *testing.T) {
	m := NewMesh(4, 4)
	res := m.Simulate(SimParams{
		Lambda: 0.12, Pattern: Uniform, Classes: 2,
		Cycles: 20000, Warmup: 4000, Seed: 3,
	})
	if res.ClassLatency[0] >= res.ClassLatency[1] {
		t.Fatalf("high-priority latency %v must beat low-priority %v",
			res.ClassLatency[0], res.ClassLatency[1])
	}
	// The analytical model must predict the same ordering (ref [35]).
	a := m.Analytical(0.12, Uniform, 2, nil)
	if a.ClassLatency[0] >= a.ClassLatency[1] {
		t.Fatal("analytical priority ordering wrong")
	}
}

func TestAnalyticalMatchesSimulationShape(t *testing.T) {
	m := NewMesh(4, 4)
	for _, lam := range []float64{0.03, 0.08} {
		a := m.Analytical(lam, Uniform, 1, nil)
		sim := m.Simulate(SimParams{Lambda: lam, Pattern: Uniform, Classes: 1, Cycles: 20000, Warmup: 4000, Seed: 4})
		rel := math.Abs(a.AvgLatency-sim.AvgLatency) / sim.AvgLatency
		if rel > 0.35 {
			t.Fatalf("lambda=%v: analytical %v vs simulated %v (rel err %v)",
				lam, a.AvgLatency, sim.AvgLatency, rel)
		}
	}
}

func TestAnalyticalSaturation(t *testing.T) {
	m := NewMesh(4, 4)
	a := m.Analytical(1.0, Uniform, 1, nil)
	if !a.Saturated {
		t.Fatal("lambda=1.0 must saturate a 4x4 mesh")
	}
}

func TestHotspotWorseThanUniform(t *testing.T) {
	m := NewMesh(4, 4)
	u := m.Analytical(0.08, Uniform, 1, nil)
	h := m.Analytical(0.08, Hotspot, 1, nil)
	if h.MaxChanRho <= u.MaxChanRho {
		t.Fatalf("hotspot max load %v should exceed uniform %v", h.MaxChanRho, u.MaxChanRho)
	}
}

func TestLatencyModel(t *testing.T) {
	m := NewMesh(4, 4)
	lambdas := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	lm, err := TrainLatencyModel(m, []Pattern{Uniform, Transpose}, lambdas, 1, 12000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// SVR correction must beat the raw analytical model on held-out rates
	// (ref [34]'s claim).
	var svrErr, anaErr float64
	for _, lam := range []float64{0.05, 0.09} {
		truth := m.Simulate(SimParams{Lambda: lam, Pattern: Uniform, Classes: 1, Cycles: 20000, Warmup: 4000, Seed: 99}).AvgLatency
		svrErr += math.Abs(lm.Predict(lam, Uniform) - truth)
		anaErr += math.Abs(m.Analytical(lam, Uniform, 1, nil).AvgLatency - truth)
	}
	if svrErr > anaErr*1.1 {
		t.Fatalf("SVR error %v should not exceed analytical error %v", svrErr, anaErr)
	}
}

func TestLatencyModelOnlineAdaptation(t *testing.T) {
	m := NewMesh(4, 4)
	lambdas := []float64{0.02, 0.05, 0.08, 0.11}
	lm, err := TrainLatencyModel(m, []Pattern{Uniform}, lambdas, 1, 10000, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Hotspot traffic was never in training; online observations must pull
	// the estimate toward the measurement.
	lam := 0.06
	truth := m.Simulate(SimParams{Lambda: lam, Pattern: Hotspot, Classes: 1, Cycles: 20000, Warmup: 4000, Seed: 42}).AvgLatency
	before := math.Abs(lm.Predict(lam, Hotspot) - truth)
	for i := 0; i < 10; i++ {
		lm.Observe(lam, Hotspot, truth)
	}
	after := math.Abs(lm.Predict(lam, Hotspot) - truth)
	if after > before {
		t.Fatalf("online adaptation made it worse: %v -> %v", before, after)
	}
	if after > 1 {
		t.Fatalf("adapted error %v cycles still large", after)
	}
}

func TestTrainLatencyModelTooFewPoints(t *testing.T) {
	m := NewMesh(4, 4)
	if _, err := TrainLatencyModel(m, []Pattern{Uniform}, []float64{0.9}, 1, 2000, 1); err == nil {
		t.Fatal("expected error with only saturated training points")
	}
}

// TestSimulateGoldenOutputs pins the simulator bit-for-bit against values
// recorded before the arena/ring-buffer refactor of the packet queues: the
// allocation work must not change a single sample. The three cases cover
// multi-class uniform, weighted-split transpose and a non-square hotspot
// mesh, and each runs twice on the same Mesh so scratch reuse itself is
// proven identical to a cold start.
func TestSimulateGoldenOutputs(t *testing.T) {
	type golden struct {
		w, h    int
		p       SimParams
		avg     float64
		del     int
		inj     int
		mean    float64
		max     float64
		classes []float64
	}
	cases := []golden{
		{4, 4, SimParams{Lambda: 0.08, Pattern: Uniform, Classes: 2, Cycles: 5000, Warmup: 1000, Seed: 7},
			2.7035008801095248, 5113, 5115, 0.070112499999999994, 0.091200000000000003,
			[]float64{2.6642512077294684, 2.7405857740585775}},
		{4, 4, SimParams{Lambda: 0.12, Pattern: Transpose, Classes: 3, ClassSplit: []float64{0.5, 0.3, 0.2}, Cycles: 4000, Warmup: 800, Seed: 42},
			3.2747035573122529, 6072, 6078, 0.12565625, 0.38524999999999998,
			[]float64{3.2273628552544613, 3.2624510352546165, 3.4058776806989672}},
		{3, 5, SimParams{Lambda: 0.05, Pattern: Hotspot, Classes: 1, Cycles: 6000, Warmup: 1500, Seed: 99},
			2.9124778237729156, 3382, 3383, 0.04805681818181818, 0.20499999999999999,
			[]float64{2.9124778237729156}},
	}
	for _, c := range cases {
		m := NewMesh(c.w, c.h)
		for round := 0; round < 2; round++ {
			r := m.Simulate(c.p)
			if r.AvgLatency != c.avg || r.Delivered != c.del || r.Injected != c.inj ||
				r.MeanChanUtil != c.mean || r.MaxChanUtil != c.max {
				t.Fatalf("%dx%d seed %d round %d: got Avg=%.17g Del=%d Inj=%d Mean=%.17g Max=%.17g, want Avg=%.17g Del=%d Inj=%d Mean=%.17g Max=%.17g",
					c.w, c.h, c.p.Seed, round,
					r.AvgLatency, r.Delivered, r.Injected, r.MeanChanUtil, r.MaxChanUtil,
					c.avg, c.del, c.inj, c.mean, c.max)
			}
			if len(r.ClassLatency) != len(c.classes) {
				t.Fatalf("class count %d, want %d", len(r.ClassLatency), len(c.classes))
			}
			for i := range c.classes {
				if r.ClassLatency[i] != c.classes[i] {
					t.Fatalf("%dx%d seed %d round %d class %d: %.17g, want %.17g",
						c.w, c.h, c.p.Seed, round, i, r.ClassLatency[i], c.classes[i])
				}
			}
		}
	}
}
