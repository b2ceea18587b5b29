// Package counters defines the hardware performance-counter vector the
// paper's Table I collects at the end of every workload snippet, plus the
// feature transforms the learning components consume.
//
// On the physical Odroid-XU3 these values come from the PMU and the INA231
// power sensors; here they are synthesized by internal/soc from the
// simulator's microarchitectural state, with identical semantics.
package counters

// Snapshot is the per-snippet counter record of Table I.
type Snapshot struct {
	InstructionsRetired float64 // instructions retired in the snippet
	CPUCycles           float64 // total cycles across active cores
	BranchMissPredPC    float64 // branch mispredictions per core
	L2Misses            float64 // level-2 cache misses, total
	DataMemAccess       float64 // data memory accesses
	NoncacheExtMemReq   float64 // non-cacheable external memory requests
	LittleUtil          float64 // little-cluster utilization in [0,1]
	BigUtil             float64 // big-cluster utilization in [0,1]
	ChipPower           float64 // total chip power consumption, W
}

// Derived returns normalized microarchitecture-independent rates that the
// policies use as inputs: IPC, misses-per-kilo-instruction and
// memory-accesses-per-instruction. These are scale-free, so a policy trained
// on one snippet length transfers to another.
func (s Snapshot) Derived() DerivedFeatures {
	ipc := 0.0
	if s.CPUCycles > 0 {
		ipc = s.InstructionsRetired / s.CPUCycles
	}
	perKI := func(x float64) float64 {
		if s.InstructionsRetired == 0 {
			return 0
		}
		return 1000 * x / s.InstructionsRetired
	}
	perI := func(x float64) float64 {
		if s.InstructionsRetired == 0 {
			return 0
		}
		return x / s.InstructionsRetired
	}
	return DerivedFeatures{
		IPC:         ipc,
		L2MPKI:      perKI(s.L2Misses),
		BranchMPKI:  perKI(s.BranchMissPredPC),
		MemPerInstr: perI(s.DataMemAccess),
		ExtPerInstr: perI(s.NoncacheExtMemReq),
		LittleUtil:  s.LittleUtil,
		BigUtil:     s.BigUtil,
		Power:       s.ChipPower,
	}
}

// DerivedFeatures is the normalized feature view of a Snapshot.
type DerivedFeatures struct {
	IPC         float64
	L2MPKI      float64
	BranchMPKI  float64
	MemPerInstr float64
	ExtPerInstr float64
	LittleUtil  float64
	BigUtil     float64
	Power       float64
}

// AppendVector appends the derived features to dst in declaration order and
// returns the extended slice.
func (d DerivedFeatures) AppendVector(dst []float64) []float64 {
	return append(dst,
		d.IPC, d.L2MPKI, d.BranchMPKI, d.MemPerInstr,
		d.ExtPerInstr, d.LittleUtil, d.BigUtil, d.Power,
	)
}

// NumDerived is the number of values AppendVector appends.
const NumDerived = 8
