package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary. Spans of one op share
// op; background work (replica pushes, trainer swaps) carries op -1 and is
// never linked to an op. key is the session id a span served, when it had
// one, so that containment links only spans of the same session.
type span struct {
	name       string
	key        string
	op         int64
	parent     int // index of the enclosing span, -1 for a root
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory; it is written out once the run ends.
// Timestamps are nanoseconds since the recorder's origin, taken from the
// monotonic clock.
type recorder struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// now returns the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// at converts a wall-clock reading to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// add records one finished span; it is a no-op while tracing is off.
func (r *recorder) add(name, key string, op, start, end int64) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, key: key, op: op, parent: -1, start: start, end: end})
	r.mu.Unlock()
}

// snapshot links and returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	link(out)
	return out
}

// link sets each span's parent to the shortest span of the same op that
// contains it and, where both name a session, serves the same one. With
// one op in flight this containment is the causal link: the client's
// request encloses the router's handling, which encloses the backend's.
func link(spans []span) {
	byOp := map[int64][]int{}
	for i := range spans {
		spans[i].parent = -1
		if spans[i].op >= 0 {
			byOp[spans[i].op] = append(byOp[spans[i].op], i)
		}
	}
	for _, idx := range byOp {
		for _, c := range idx {
			best := -1
			for _, p := range idx {
				if p == c || !contains(spans[p], spans[c]) {
					continue
				}
				if spans[p].key != "" && spans[c].key != "" && spans[p].key != spans[c].key {
					continue
				}
				if best < 0 || spans[p].dur() < spans[best].dur() {
					best = p
				}
			}
			spans[c].parent = best
		}
	}
}

// contains reports whether p encloses c. A parent must be strictly
// longer than its child, so spans of equal length are never parent and
// child.
func contains(p, c span) bool {
	return p.start <= c.start && c.end <= p.end && p.dur() > c.dur()
}

// selfTimes returns, per span index, its duration minus the part of its
// interval covered by its children. Overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes one tab-separated line per span: name, op, parent,
// start_ns, end_ns, self_ns, key.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	fmt.Fprintln(w, "name\top\tparent\tstart_ns\tend_ns\tself_ns\tkey")
	for i, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%s\n", s.name, s.op, s.parent, s.start, s.end, self[i], s.key)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
