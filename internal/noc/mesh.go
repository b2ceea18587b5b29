// Package noc implements the network-on-chip performance-modeling layer of
// Section III-C: a slotted priority-queue mesh simulator (the ground
// truth), the queueing-theoretic analytical latency model of ref [35], and
// the SVR-corrected machine-learning model of ref [34], extended with an
// online RLS adaptation head as the section's closing paragraph calls for.
package noc

import (
	"fmt"
	"sync"
)

// Direction indexes the four mesh output channels of a router.
type Direction int

// Mesh channel directions.
const (
	East Direction = iota
	West
	North
	South
	numDirs
)

// Mesh is a W x H 2D mesh with XY dimension-ordered routing.
type Mesh struct {
	W, H int

	// simPool holds reusable simulator scratch (packet arena, queue rings,
	// CDF tables) so repeated Simulate runs — including concurrent ones —
	// stop churning the allocator. See simScratch in sim.go.
	simPool sync.Pool

	// anaOnce/ana cache the analytical model's route and traffic tables
	// (pure functions of the geometry, built on first use); anaPool holds
	// the per-call load/wait scratch. See anaTables in analytical.go.
	anaOnce sync.Once
	ana     *anaTables
	anaPool sync.Pool
}

// NewMesh returns a mesh topology. Width and height must be positive.
func NewMesh(w, h int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", w, h))
	}
	return &Mesh{W: w, H: h}
}

// Nodes returns the number of routers.
func (m *Mesh) Nodes() int { return m.W * m.H }

// XY converts a node id to coordinates.
func (m *Mesh) XY(n int) (x, y int) { return n % m.W, n / m.W }

// Node converts coordinates to a node id.
func (m *Mesh) Node(x, y int) int { return y*m.W + x }

// ChannelID identifies the output channel of router n in direction d.
func (m *Mesh) ChannelID(n int, d Direction) int { return n*int(numDirs) + int(d) }

// NumChannels returns the number of directed channels (including edge
// channels that XY routing never uses; they simply stay idle).
func (m *Mesh) NumChannels() int { return m.Nodes() * int(numDirs) }

// NextHop returns the XY-routing output direction at router cur for a
// packet heading to dst, and the neighbouring router. ok is false when
// cur == dst (the packet ejects).
func (m *Mesh) NextHop(cur, dst int) (d Direction, next int, ok bool) {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	switch {
	case dx > cx:
		return East, m.Node(cx+1, cy), true
	case dx < cx:
		return West, m.Node(cx-1, cy), true
	case dy > cy:
		return South, m.Node(cx, cy+1), true
	case dy < cy:
		return North, m.Node(cx, cy-1), true
	}
	return 0, cur, false
}

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Pattern selects the spatial traffic distribution.
type Pattern int

// Supported synthetic traffic patterns.
const (
	// Uniform sends each packet to a uniformly random other node.
	Uniform Pattern = iota
	// Transpose sends node (x,y) traffic to node (y,x).
	Transpose
	// Hotspot concentrates a share of traffic on one node (the memory
	// controller corner) with the rest uniform.
	Hotspot
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case Hotspot:
		return "hotspot"
	}
	return "unknown"
}

// destProb returns the probability that a packet born at src targets dst
// under the pattern (zero for dst == src).
func (m *Mesh) destProb(p Pattern, src, dst int) float64 {
	if src == dst {
		return 0
	}
	n := m.Nodes()
	switch p {
	case Uniform:
		return 1 / float64(n-1)
	case Transpose:
		x, y := m.XY(src)
		t := m.Node(y%m.W, x%m.H)
		if t == src { // diagonal nodes fall back to uniform
			return 1 / float64(n-1)
		}
		if dst == t {
			return 1
		}
		return 0
	case Hotspot:
		const hotShare = 0.3
		hot := 0 // corner node, e.g. the memory controller
		if src == hot {
			return 1 / float64(n-1) // the hotspot itself sends uniformly
		}
		uni := (1 - hotShare) / float64(n-1)
		if dst == hot {
			return hotShare + uni
		}
		return uni
	}
	return 0
}
