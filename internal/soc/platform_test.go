package soc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"socrm/internal/workload"
)

func computeSnippet() workload.Snippet {
	return workload.Snippet{
		Instructions: 100e6, MemIntensity: 0.08, L2MissRate: 0.02,
		BranchMPKI: 1, BaseCPI: 0.9, ILPBigBoost: 2.0, Threads: 1,
	}
}

func memorySnippet() workload.Snippet {
	return workload.Snippet{
		Instructions: 100e6, MemIntensity: 0.42, L2MissRate: 0.26,
		BranchMPKI: 3, BaseCPI: 1.4, ILPBigBoost: 1.4, Threads: 1,
	}
}

func TestConfigSpaceSize(t *testing.T) {
	p := NewXU3()
	if got := p.NumConfigs(); got != 4940 {
		t.Fatalf("config space = %d, want 4940 (paper's Exynos 5422 count)", got)
	}
	if got := len(p.Configs()); got != 4940 {
		t.Fatalf("Configs() returned %d entries", got)
	}
}

func TestOPPTables(t *testing.T) {
	p := NewXU3()
	if len(p.LittleOPPs) != 13 || len(p.BigOPPs) != 19 {
		t.Fatalf("OPP counts %d/%d, want 13/19", len(p.LittleOPPs), len(p.BigOPPs))
	}
	if p.LittleOPPs[0].FreqMHz != 200 || p.LittleOPPs[12].FreqMHz != 1400 {
		t.Fatal("little frequency range wrong")
	}
	if p.BigOPPs[0].FreqMHz != 200 || p.BigOPPs[18].FreqMHz != 2000 {
		t.Fatal("big frequency range wrong")
	}
	// Voltage must be monotone in frequency.
	for i := 1; i < len(p.BigOPPs); i++ {
		if p.BigOPPs[i].Volt <= p.BigOPPs[i-1].Volt {
			t.Fatal("big voltage not monotone")
		}
	}
}

func TestConfigKeyUnique(t *testing.T) {
	p := NewXU3()
	seen := map[Config]bool{}
	for _, c := range p.Configs() {
		if seen[c] {
			t.Fatalf("duplicate key for %v", c)
		}
		seen[c] = true
	}
}

func TestExecuteBasicInvariants(t *testing.T) {
	p := NewXU3()
	f := func(lf, bf, nl, nb uint8) bool {
		c := p.Clamp(Config{int(lf % 13), int(bf % 19), 1 + int(nl%4), int(nb % 5)})
		r := p.Execute(memorySnippet(), c)
		return r.Time > 0 && r.Energy > 0 && r.AvgPower > 0 &&
			r.Counters.InstructionsRetired == 100e6 &&
			r.Counters.ChipPower == r.AvgPower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHigherFrequencyIsFaster(t *testing.T) {
	p := NewXU3()
	s := computeSnippet()
	slow := p.Execute(s, Config{0, 0, 1, 1})
	fast := p.Execute(s, Config{0, 18, 1, 1})
	if fast.Time >= slow.Time {
		t.Fatalf("high freq (%v) not faster than low freq (%v)", fast.Time, slow.Time)
	}
}

func TestMemoryWallSaturation(t *testing.T) {
	// For a memory-bound snippet, doubling big frequency from mid to max
	// must yield far less than proportional speedup.
	p := NewXU3()
	s := memorySnippet()
	mid := p.Execute(s, Config{0, 8, 1, 1})  // 1000 MHz
	max := p.Execute(s, Config{0, 18, 1, 1}) // 2000 MHz
	speedup := mid.Time / max.Time
	if speedup > 1.5 {
		t.Fatalf("memory-bound speedup %v too close to linear", speedup)
	}
	// And a compute-bound snippet must scale much better.
	c := p.Execute(computeSnippet(), Config{0, 8, 1, 1}).Time /
		p.Execute(computeSnippet(), Config{0, 18, 1, 1}).Time
	if c < speedup+0.2 {
		t.Fatalf("compute-bound speedup %v should clearly beat memory-bound %v", c, speedup)
	}
}

func TestEnergyOptimumWorkloadDependent(t *testing.T) {
	// The core premise: the energy-optimal configuration differs between
	// compute- and memory-bound snippets (big cluster vs little cluster).
	p := NewXU3()
	best := func(s workload.Snippet) Config {
		cfgs := p.Configs()
		bc, be := cfgs[0], p.Execute(s, cfgs[0]).Energy
		for _, c := range cfgs[1:] {
			if e := p.Execute(s, c).Energy; e < be {
				bc, be = c, e
			}
		}
		return bc
	}
	cb := best(computeSnippet())
	mb := best(memorySnippet())
	if cb.NBig == 0 {
		t.Fatalf("compute-bound optimum %v should use the big cluster", cb)
	}
	if mb.NBig != 0 {
		t.Fatalf("memory-bound optimum %v should gate the big cluster", mb)
	}
}

func TestMoreActiveCoresCostPower(t *testing.T) {
	p := NewXU3()
	s := computeSnippet() // 1 thread: extra cores are pure overhead
	one := p.Execute(s, Config{6, 9, 1, 1})
	four := p.Execute(s, Config{6, 9, 4, 4})
	if four.AvgPower <= one.AvgPower {
		t.Fatalf("4+4 cores power %v <= 1+1 cores %v", four.AvgPower, one.AvgPower)
	}
	if four.Time != one.Time {
		t.Fatalf("idle cores changed runtime: %v vs %v", four.Time, one.Time)
	}
}

func TestMultithreadSpeedup(t *testing.T) {
	p := NewXU3()
	s := computeSnippet()
	s.Threads = 4
	one := p.Execute(s, Config{0, 9, 1, 1})
	four := p.Execute(s, Config{0, 9, 1, 4})
	sp := one.Time / four.Time
	if sp < 2.5 {
		t.Fatalf("4-core speedup %v too low", sp)
	}
}

func TestPlacement(t *testing.T) {
	cases := []struct {
		threads          int
		cfg              Config
		wantBig, wantLit int
	}{
		{1, Config{0, 0, 4, 4}, 1, 0},
		{1, Config{0, 0, 4, 0}, 0, 1},
		{2, Config{0, 0, 4, 1}, 1, 1},
		{4, Config{0, 0, 2, 4}, 4, 0},
		{6, Config{0, 0, 2, 4}, 4, 2},
		{0, Config{0, 0, 1, 0}, 0, 1}, // the OS core is always there
	}
	for _, c := range cases {
		ub, ul := Placement(c.threads, c.cfg)
		if ub != c.wantBig || ul != c.wantLit {
			t.Fatalf("Placement(%d, %v) = %d,%d want %d,%d",
				c.threads, c.cfg, ub, ul, c.wantBig, c.wantLit)
		}
	}
}

func TestTemperatureRaisesLeakage(t *testing.T) {
	p := NewXU3()
	s := computeSnippet()
	cfg := Config{6, 9, 2, 2}
	p.Temp = 45
	cool := p.Execute(s, cfg)
	p.Temp = 85
	hot := p.Execute(s, cfg)
	if hot.AvgPower <= cool.AvgPower {
		t.Fatalf("hot power %v <= cool power %v", hot.AvgPower, cool.AvgPower)
	}
}

func TestNeighborhood(t *testing.T) {
	p := NewXU3()
	c := Config{6, 9, 2, 2}
	n1 := p.Neighborhood(c, 1)
	// Interior config, radius 1: 3^4 = 81 candidates.
	if len(n1) != 81 {
		t.Fatalf("radius-1 neighborhood has %d configs, want 81", len(n1))
	}
	found := false
	for _, x := range n1 {
		if x == c {
			found = true
		}
		if !p.Valid(x) {
			t.Fatalf("invalid neighbor %v", x)
		}
	}
	if !found {
		t.Fatal("neighborhood must include the center")
	}
	// At a corner, clamping dedups.
	corner := p.Neighborhood(Config{0, 0, 1, 0}, 1)
	if len(corner) != 16 {
		t.Fatalf("corner neighborhood has %d configs, want 16", len(corner))
	}
}

// referenceNeighborhood is the historical clamp-and-dedup enumeration the
// direct range enumeration of AppendNeighborhood replaced. The two must
// produce identical candidate sequences (not just identical sets):
// AppendNeighborhood is the reference the online-IL sweep
// (il.Evaluator.Best) is tested against, and the argmin tie-breaking of
// that sweep follows first-seen order.
func referenceNeighborhood(p *Platform, c Config, radius int) []Config {
	var out []Config
	seen := map[Config]bool{}
	for dl := -radius; dl <= radius; dl++ {
		for db := -radius; db <= radius; db++ {
			for dnl := -radius; dnl <= radius; dnl++ {
				for dnb := -radius; dnb <= radius; dnb++ {
					n := p.Clamp(Config{
						LittleFreqIdx: c.LittleFreqIdx + dl,
						BigFreqIdx:    c.BigFreqIdx + db,
						NLittle:       c.NLittle + dnl,
						NBig:          c.NBig + dnb,
					})
					if !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

func TestAppendNeighborhoodMatchesReference(t *testing.T) {
	p := NewXU3()
	rng := rand.New(rand.NewSource(7))
	cases := []Config{
		{0, 0, 1, 0},   // min corner
		{12, 18, 4, 4}, // max corner
		{0, 18, 1, 4},  // mixed corners
		{6, 9, 2, 2},   // interior
		{1, 17, 4, 0},  // one off the edges
		{12, 0, 1, 2},  // little pinned high, big pinned low
	}
	for i := 0; i < 60; i++ {
		cases = append(cases, Config{rng.Intn(13), rng.Intn(19), 1 + rng.Intn(4), rng.Intn(5)})
	}
	var buf []Config
	for _, c := range cases {
		for radius := 1; radius <= 4; radius++ {
			want := referenceNeighborhood(p, c, radius)
			buf = p.AppendNeighborhood(buf[:0], c, radius)
			if len(buf) != len(want) {
				t.Fatalf("c=%v r=%d: %d candidates, reference has %d", c, radius, len(buf), len(want))
			}
			for k := range want {
				if buf[k] != want[k] {
					t.Fatalf("c=%v r=%d: candidate %d is %v, reference order has %v", c, radius, k, buf[k], want[k])
				}
			}
			// Membership predicate must agree with the enumeration.
			for _, n := range buf {
				if !p.InNeighborhood(c, n, radius) {
					t.Fatalf("c=%v r=%d: %v enumerated but InNeighborhood says no", c, radius, n)
				}
			}
			// ...and reject non-members: probe the far corner, which is
			// only a member when the radius reaches it.
			probe := Config{LittleFreqIdx: 12, BigFreqIdx: 18, NLittle: 4, NBig: 4}
			member := false
			for _, n := range buf {
				if n == probe {
					member = true
				}
			}
			if got := p.InNeighborhood(c, probe, radius); got != member {
				t.Fatalf("c=%v r=%d: InNeighborhood(%v) = %v, enumeration says %v", c, radius, probe, got, member)
			}
		}
	}
}

func TestFeaturesRoundTrip(t *testing.T) {
	p := NewXU3()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		c := Config{rng.Intn(13), rng.Intn(19), 1 + rng.Intn(4), rng.Intn(5)}
		got := p.FromFeatures(p.AppendFeatures(nil, c))
		if got != c {
			t.Fatalf("round trip %v -> %v", c, got)
		}
	}
}

func TestClampAndValid(t *testing.T) {
	p := NewXU3()
	c := p.Clamp(Config{-5, 99, 0, 9})
	if !p.Valid(c) {
		t.Fatalf("clamped config %v invalid", c)
	}
	if c.LittleFreqIdx != 0 || c.BigFreqIdx != 18 || c.NLittle != 1 || c.NBig != 4 {
		t.Fatalf("clamp result %v", c)
	}
}

func TestUtilizationCounters(t *testing.T) {
	p := NewXU3()
	s := computeSnippet()
	r := p.Execute(s, Config{6, 9, 4, 2})
	if r.Counters.BigUtil != 0.5 {
		t.Fatalf("big util = %v, want 0.5 (1 thread on 2 cores)", r.Counters.BigUtil)
	}
	if r.Counters.LittleUtil != 0 {
		t.Fatalf("little util = %v, want 0", r.Counters.LittleUtil)
	}
}

func TestEnergyEqualsPowerTimesTime(t *testing.T) {
	p := NewXU3()
	r := p.Execute(memorySnippet(), Config{6, 9, 2, 2})
	if diff := r.Energy - r.AvgPower*r.Time; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("E != P*t: %v", diff)
	}
}
