package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"socrm/internal/soc"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{1, 50, 1},     // nothing qualifies: the median is reported
		{5, 50, 3},     // still below 20 samples
		{19, 50, 10},   // p50 has 9 beyond
		{20, 50, 10},   // p50 has exactly 10 beyond
		{39, 50, 20},   // p75 would have 9 beyond
		{40, 75, 30},   // p75 has exactly 10 beyond
		{100, 90, 90},  // p95 would have 5
		{200, 95, 190}, // p99 would have 2
		{1000, 99, 990},
		{1999, 99, 1980},
		{2000, 99.5, 1990},
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: tail = %s %v, want %s %v", tc.n, pctName(pct), v, pctName(tc.pct), tc.want)
		}
		if tc.n >= 20 && beyond(tc.n, pct) < minBeyond {
			t.Errorf("n=%d: %s has only %d samples beyond", tc.n, pctName(pct), beyond(tc.n, pct))
		}
	}
}

// near reports whether a histogram reading is within one bucket of want.
func near(got, want float64) bool { return math.Abs(got/want-1) <= 2*histStep }

func TestHistQuantiles(t *testing.T) {
	var h hist
	if h.median() != 0 {
		t.Fatalf("empty median = %v", h.median())
	}
	for _, v := range seq(1000) {
		h.add(v)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {100, 1000}} {
		if got := h.quantile(tc.p); !near(got, tc.want) {
			t.Errorf("p%g = %v, want %v within a bucket", tc.p, got, tc.want)
		}
	}
	// Out-of-range samples land in the end buckets instead of panicking.
	h.add(0)
	h.add(1e12)
	if h.n != 1002 {
		t.Fatalf("n = %d after 1002 adds", h.n)
	}
}

func TestWindowTail(t *testing.T) {
	// Two full windows, 1..100 and 101..200, with p90 90 and 190; the
	// trailing 50 are dropped. The median of two is the lower one.
	var w windowTail
	for _, v := range seq(250) {
		w.add(v)
	}
	if pct, v, n := w.value(); pct != 90 || n != 2 || !near(v, 90) {
		t.Fatalf("250 samples: %s %v over %d windows", pctName(pct), v, n)
	}
	// Fewer than one window's worth is one window under the plain rule.
	var short windowTail
	for _, v := range seq(50) {
		short.add(v)
	}
	wantP, wantV := tail(seq(50))
	if pct, v, n := short.value(); pct != wantP || v != wantV || n != 1 {
		t.Fatalf("50 samples: %s %v over %d windows, want %s %v", pctName(pct), v, n, pctName(wantP), wantV)
	}
}

func TestTracedPhaseFailureFailsRun(t *testing.T) {
	rep := &report{}
	rep.fill(&phase{ops: 100}, window{ops: 100, wall: time.Second})
	if !rep.correct() || rep.okRatio != 1 {
		t.Fatalf("clean untraced phase: correct %v, ok_ratio %v", rep.correct(), rep.okRatio)
	}
	// The traced phase goes through count, as in runFleet.
	rep.count(&phase{ops: 100, failed: 1, firstErr: errors.New("bad config")})
	if rep.correct() || rep.attempted != 200 || rep.failed != 1 || rep.okRatio != 0.995 {
		t.Fatalf("after a failed traced op: correct %v, %d/%d failed, ok_ratio %v",
			rep.correct(), rep.failed, rep.attempted, rep.okRatio)
	}
	// An energy breach in either phase fails every op.
	rep = &report{}
	rep.fill(&phase{ops: 10}, window{ops: 10, wall: time.Second})
	rep.count(&phase{ops: 10})
	rep.checkEnergy(0.9)
	if rep.correct() || rep.failed != 20 {
		t.Fatalf("energy below the Oracle: correct %v, %d/%d failed", rep.correct(), rep.failed, rep.attempted)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{name: "router", key: "s1", op: 1, start: 0, end: 100},
		{name: "backend-a", key: "s1", op: 1, start: 10, end: 40},
		{name: "backend-b", key: "s1", op: 1, start: 30, end: 60}, // overlaps a
		{name: "decide", key: "s1", op: 1, start: 15, end: 20},    // nested in a
		{name: "other", key: "s2", op: 1, start: 70, end: 80},     // another session
		{name: "push", op: -1, start: 5, end: 95},                 // background
	}
	link(spans)
	wantParent := []int{-1, 0, 0, 1, -1, -1}
	for i, p := range wantParent {
		if spans[i].parent != p {
			t.Errorf("%s: parent %d, want %d", spans[i].name, spans[i].parent, p)
		}
	}
	self := selfTimes(spans)
	// router: 100 minus the union [10,60] of its children.
	for i, want := range []int64{50, 25, 30, 5, 10, 90} {
		if self[i] != want {
			t.Errorf("%s: self %d, want %d", spans[i].name, self[i], want)
		}
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: -5, end: 3}, {start: 8, end: 20}, {start: 2, end: 4}}
	if got := covered(spans[0], spans, []int{1, 2, 3}); got != 6 {
		t.Fatalf("covered = %d, want 6 ([0,4] and [8,10])", got)
	}
}

func TestChecksRejectBadOutputs(t *testing.T) {
	p := soc.NewXU3()
	good := p.Clamp(soc.Config{LittleFreqIdx: 3, BigFreqIdx: 5, NLittle: 2, NBig: 1})
	if err := checkConfig(p, good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []soc.Config{
		{LittleFreqIdx: 99, BigFreqIdx: 5, NLittle: 2, NBig: 1},
		{LittleFreqIdx: 3, BigFreqIdx: -1, NLittle: 2, NBig: 1},
		{LittleFreqIdx: 3, BigFreqIdx: 5, NLittle: 0, NBig: 9},
	} {
		if checkConfig(p, bad) == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}

	if err := checkSteps("s", 7, 11, 4); err != nil {
		t.Errorf("step count 7+4=11 rejected: %v", err)
	}
	for _, got := range []uint64{10, 12, 7} {
		if checkSteps("s", 7, got, 4) == nil {
			t.Errorf("step count %d after 7+4 accepted", got)
		}
	}

	for _, x := range []float64{1, 1.0000001, 1.8} {
		if err := checkEnergyRatio(x); err != nil {
			t.Errorf("ratio %v rejected: %v", x, err)
		}
	}
	for _, x := range []float64{0.999, 0, math.NaN()} {
		if checkEnergyRatio(x) == nil {
			t.Errorf("ratio %v accepted", x)
		}
	}

	if err := checkDigest(2, "abc", "abc"); err != nil {
		t.Errorf("equal digests rejected: %v", err)
	}
	if checkDigest(2, "abc", "abd") == nil {
		t.Error("different digest accepted")
	}
}

func TestSessionOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/sessions/r-7/step": "r-7",
		"/v1/sessions/r-7":      "r-7",
		"/v1/replica/r-9":       "r-9",
		"/v1/sessions":          "",
		"/v1/step/batch":        "",
	} {
		if got := sessionOf(path); got != want {
			t.Errorf("sessionOf(%q) = %q, want %q", path, got, want)
		}
	}
}
