package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("r-%d", i)
	}
	return out
}

// TestRingDeterministic: ownership must be a pure function of the node SET —
// same answers across processes and regardless of the order the operator
// listed the peers in, because router and drainer compute placement
// independently.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c", "http://a", "http://b"})
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q depends on node order: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingRemovalMovesOnlyRemovedArcs is the consistent-hashing contract:
// dropping one node relocates only the sessions that node owned. Everything
// the drain migrates lands exactly where the router's shrunken ring looks.
func TestRingRemovalMovesOnlyRemovedArcs(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c"})
	less := NewRing([]string{"http://a", "http://b"})
	moved, kept := 0, 0
	for _, k := range keys(2000) {
		before := full.Owner(k)
		after := less.Owner(k)
		if before == "http://c" {
			moved++
			continue
		}
		kept++
		if after != before {
			t.Fatalf("key %q moved from %q to %q though its owner stayed in the ring",
				k, before, after)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRingBalance: with DefaultVNodes every backend should carry a
// meaningful share — no node starved below 10% on a 3-node ring.
func TestRingBalance(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r := NewRing(nodes)
	counts := map[string]int{}
	const n = 3000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	for _, node := range nodes {
		if c := counts[node]; c < n/10 {
			t.Fatalf("node %s owns only %d/%d keys — ring badly unbalanced (%v)",
				node, c, n, counts)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner("r-1"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty ring Len = %d", empty.Len())
	}
	single := NewRing([]string{"http://only"})
	for _, k := range keys(50) {
		if single.Owner(k) != "http://only" {
			t.Fatal("single-node ring routed a key elsewhere")
		}
	}
	if !single.Has("http://only") || single.Has("http://other") {
		t.Fatal("Has membership wrong")
	}
}

// TestRingSuccessors pins the replica placement order: the owner first, k
// distinct members, k capped at the member count — and when the owner
// leaves the ring, the key's new owner is the old first standby, so the
// replicator's pushes are already where failover traffic lands.
func TestRingSuccessors(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c", "http://d"}
	r := NewRing(nodes)
	without := map[string]*Ring{}
	for _, gone := range nodes {
		var rest []string
		for _, n := range nodes {
			if n != gone {
				rest = append(rest, n)
			}
		}
		without[gone] = NewRing(rest)
	}
	for _, k := range keys(500) {
		succ := r.Successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q, 3) = %v, want 3 entries", k, succ)
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("Successors(%q)[0] = %q, owner is %q", k, succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("Successors(%q, 3) = %v repeats %q", k, succ, n)
			}
			seen[n] = true
		}
		all := r.Successors(k, 10)
		if len(all) != len(nodes) {
			t.Fatalf("Successors(%q, 10) = %v, want capped at %d", k, all, len(nodes))
		}
		for i := range succ {
			if all[i] != succ[i] {
				t.Fatalf("Successors(%q) order depends on k: %v vs %v", k, succ, all)
			}
		}
		if got := without[succ[0]].Owner(k); got != succ[1] {
			t.Fatalf("after %q leaves, %q is owned by %q, want first standby %q",
				succ[0], k, got, succ[1])
		}
	}
	if got := r.Successors("r-1", 0); got != nil {
		t.Fatalf("Successors(k, 0) = %v, want nil", got)
	}
	if got := NewRing(nil).Successors("r-1", 2); got != nil {
		t.Fatalf("empty ring Successors = %v, want nil", got)
	}
}
