// Package cluster turns a set of socserved backends into one logical
// service: a consistent-hash ring pins every session id to a backend, a
// front-tier router proxies the serving API along the ring and migrates
// sessions when membership changes, and a drainer streams a backend's
// sessions to its peers before the process exits. The state layer
// (serve.ExportSession/ImportSession) makes all of it possible — a session
// is just bytes in flight between two registries.
package cluster

import (
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per backend. It is a constant
// because router, drainer and replicator build their rings independently
// and must place every key identically. At 64 points per node the
// largest-to-smallest arc ratio stays within a few tens of percent, good
// enough that a two-backend cluster splits sessions roughly evenly.
const DefaultVNodes = 64

// hash64 is FNV-1a 64 with an avalanche finalizer, allocation-free. Every
// participant — router, drainer, replicator, tests — must agree on this
// function and on the vnode key format below, because ownership is computed
// independently on both sides of a migration.
//
// The finalizer (murmur3 fmix64) matters: raw FNV-1a of two keys differing
// only in the trailing characters differs by roughly delta*prime ≈ 2^40 —
// a rounding error on a 2^64 ring — so sequentially assigned ids ("r-1",
// "r-2", ...) would all fall on one arc and pile onto a single backend.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Ring is an immutable consistent-hash ring over backend names (URLs).
// Build a new ring on membership change and swap it atomically; lookups are
// a binary search with no locks. The point layout is a function of the
// member set alone, so every participant agrees on Owner and Successors.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	h    uint64
	node string
}

// NewRing builds a ring with DefaultVNodes virtual points per node. Node
// order does not matter; the ring is deterministic in the node set.
func NewRing(nodes []string) *Ring {
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	r := &Ring{
		nodes:  sorted,
		points: make([]ringPoint, 0, len(sorted)*DefaultVNodes),
	}
	for _, n := range sorted {
		for v := 0; v < DefaultVNodes; v++ {
			r.points = append(r.points, ringPoint{h: hash64(n + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the backend owning the key: the first ring point at or
// after the key's hash, wrapping at the top. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Successors returns the first k distinct backends encountered walking
// clockwise from the key's hash — the owner first, then the nodes that
// inherit the key as members ahead of them die. k is clamped to the member
// count. This is the replica placement order: the K-1 nodes after the owner
// are exactly where failover traffic for the key lands next.
func (r *Ring) Successors(key string, k int) []string {
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.nodes) {
		k = len(r.nodes)
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, k)
	for scanned := 0; scanned < len(r.points) && len(out) < k; scanned++ {
		node := r.points[(i+scanned)%len(r.points)].node
		dup := false
		for _, have := range out {
			if have == node {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, node)
		}
	}
	return out
}

// Nodes returns the ring's member set, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Has reports membership.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}
