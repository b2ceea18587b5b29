package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles lat_tail_us may report, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999}

// minBeyond is how many samples must lie above a percentile before it may
// be reported as the tail: fewer and one stray sample decides the figure.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond counts the samples ranked above percentile p in n samples.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// tail returns the highest ladder percentile with at least minBeyond
// samples ranked above it, and its value. Below 2*minBeyond samples no
// percentile qualifies and the median is returned, so the caller still
// names the percentile it printed.
func tail(sorted []float64) (pct, value float64) {
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if beyond(len(sorted), p) >= minBeyond {
			pct = p
		}
	}
	return pct, percentile(sorted, pct)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pctName formats a percentile the way the report names it: p50, p99.9.
func pctName(p float64) string { return fmt.Sprintf("p%g", p) }

// tailWindow is the op count of the windows lat_tail_us is taken over: a
// window of 100 ops puts the tail at p90, with ten samples beyond it.
const tailWindow = 100

// Histogram buckets are histStep wide in log space (about 0.4%), from
// histMin µs up to about 65 s; smaller samples fall in the first bucket and
// larger ones in the last. A histogram takes 18 KB.
const (
	histMin     = 1.0
	histStep    = 1.0 / 256
	histBuckets = 18 * 256
)

// hist is a histogram of positive samples in logarithmic buckets. Its size
// is fixed, so recording ops does not grow the heap the benchmark measures.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

func (h *hist) add(v float64) {
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)/histStep), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the nearest-rank percentile p as the geometric middle
// of the bucket holding it; 0 for an empty histogram.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank, seen := rankIndex(h.n, p), 0
	for i, c := range h.counts {
		if seen += int(c); seen > rank {
			return histMin * math.Exp((float64(i)+0.5)*histStep)
		}
	}
	panic("unreachable")
}

func (h *hist) median() float64 { return h.quantile(50) }

// windowTail computes lat_tail_us as samples arrive: they are cut into
// consecutive windows of tailWindow in time order, each window's tail goes
// into a histogram, and the figure is the median window. A median over
// windows keeps one burst of host CPU steal from setting the figure. A
// trailing partial window is dropped, unless no window filled, in which
// case the partial one is the figure.
type windowTail struct {
	buf   [tailWindow]float64
	n     int
	pct   float64
	tails hist
}

func (w *windowTail) add(v float64) {
	w.buf[w.n] = v
	w.n++
	if w.n == tailWindow {
		sort.Float64s(w.buf[:])
		var t float64
		w.pct, t = tail(w.buf[:])
		w.tails.add(t)
		w.n = 0
	}
}

// value returns the windows' percentile, the median window's tail and the
// number of windows.
func (w *windowTail) value() (pct, v float64, windows int) {
	if w.tails.n == 0 {
		pct, v = tail(sortedCopy(w.buf[:w.n]))
		return pct, v, 1
	}
	return w.pct, w.tails.median(), w.tails.n
}
