package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func sample() Snapshot {
	return Snapshot{
		InstructionsRetired: 100e6,
		CPUCycles:           150e6,
		BranchMissPredPC:    2e5,
		L2Misses:            1e6,
		DataMemAccess:       15e6,
		NoncacheExtMemReq:   3e5,
		LittleUtil:          0.25,
		BigUtil:             1.0,
		ChipPower:           2.5,
	}
}

func TestDerived(t *testing.T) {
	d := sample().Derived()
	if math.Abs(d.IPC-100.0/150.0) > 1e-12 {
		t.Fatalf("IPC = %v", d.IPC)
	}
	if math.Abs(d.L2MPKI-10) > 1e-9 {
		t.Fatalf("L2MPKI = %v, want 10", d.L2MPKI)
	}
	if math.Abs(d.MemPerInstr-0.15) > 1e-12 {
		t.Fatalf("MemPerInstr = %v", d.MemPerInstr)
	}
	if len(d.AppendVector(nil)) != NumDerived {
		t.Fatalf("derived vector length %d != NumDerived", len(d.AppendVector(nil)))
	}
}

func TestDerivedZeroSafe(t *testing.T) {
	d := Snapshot{}.Derived()
	if d.IPC != 0 || d.L2MPKI != 0 || d.MemPerInstr != 0 {
		t.Fatalf("zero snapshot must derive zeros, got %+v", d)
	}
}

func TestScalerStandardizes(t *testing.T) {
	samples := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	s := FitScaler(samples)
	out := s.TransformAll(samples)
	for j := 0; j < 2; j++ {
		mean, sq := 0.0, 0.0
		for _, r := range out {
			mean += r[j]
		}
		mean /= float64(len(out))
		for _, r := range out {
			sq += (r[j] - mean) * (r[j] - mean)
		}
		sq = math.Sqrt(sq / float64(len(out)))
		if math.Abs(mean) > 1e-9 || math.Abs(sq-1) > 1e-9 {
			t.Fatalf("col %d: mean %v std %v", j, mean, sq)
		}
	}
}

func TestScalerClips(t *testing.T) {
	s := FitScaler([][]float64{{0}, {1}, {0}, {1}})
	out := s.Transform([]float64{1e9})
	if out[0] != ClipSigma {
		t.Fatalf("expected clip at %v, got %v", ClipSigma, out[0])
	}
	out = s.Transform([]float64{-1e9})
	if out[0] != -ClipSigma {
		t.Fatalf("expected clip at %v, got %v", -ClipSigma, out[0])
	}
}

func TestScalerConstantColumn(t *testing.T) {
	s := FitScaler([][]float64{{7, 1}, {7, 2}})
	out := s.Transform([]float64{7, 1.5})
	if out[0] != 0 {
		t.Fatalf("constant column should map to 0, got %v", out[0])
	}
}

func TestScalerEmptyPassthrough(t *testing.T) {
	s := &Scaler{}
	x := []float64{1, 2, 3}
	out := s.Transform(x)
	for i := range x {
		if out[i] != x[i] {
			t.Fatal("empty scaler must pass through")
		}
	}
}

func TestScalerBoundedProperty(t *testing.T) {
	s := FitScaler([][]float64{{0, 0}, {1, 5}, {2, 10}, {3, 2}})
	f := func(a, b float64) bool {
		out := s.Transform([]float64{a, b})
		for _, v := range out {
			if v > ClipSigma || v < -ClipSigma || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
