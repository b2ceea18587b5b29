package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"socrm/internal/workload"
)

func TestOPPTable(t *testing.T) {
	d := NewIntelGen9()
	if len(d.OPPs) != 17 {
		t.Fatalf("OPP count %d, want 17 (300-1100 MHz step 50)", len(d.OPPs))
	}
	// Voltage floor below 500 MHz, monotone above.
	for _, o := range d.OPPs {
		if o.FreqMHz <= 500 && o.Volt != 0.75 {
			t.Fatalf("%v MHz should sit at the retention floor, got %v V", o.FreqMHz, o.Volt)
		}
	}
	if d.OPPs[len(d.OPPs)-1].Volt <= d.OPPs[0].Volt {
		t.Fatal("peak voltage must exceed floor")
	}
}

func TestCapacityMonotone(t *testing.T) {
	d := NewIntelGen9()
	f := func(a, b uint8) bool {
		s1 := d.Clamp(State{FreqIdx: int(a) % 17, Slices: 1 + int(b)%3})
		s2 := State{FreqIdx: s1.FreqIdx, Slices: s1.Slices}
		s2.FreqIdx++
		s2 = d.Clamp(s2)
		return d.Capacity(s2) >= d.Capacity(s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceScalingSublinear(t *testing.T) {
	d := NewIntelGen9()
	one := d.Capacity(State{FreqIdx: 8, Slices: 1})
	three := d.Capacity(State{FreqIdx: 8, Slices: 3})
	ratio := three / one
	if ratio <= 2 || ratio >= 3 {
		t.Fatalf("3-slice scaling %v should be sublinear in (2,3)", ratio)
	}
}

func TestRenderFrameMeetsDeadlineAtMax(t *testing.T) {
	d := NewIntelGen9()
	budget := 1.0 / 30
	frame := workload.Frame{Load: 0.9, MemRatio: 0.3}
	st := d.MaxState()
	stats := d.RenderFrame(frame, budget, st, st)
	if stats.Late {
		t.Fatal("load 0.9 must meet the deadline at maximum configuration")
	}
	if stats.Util <= 0 || stats.Util > 1 {
		t.Fatalf("util = %v", stats.Util)
	}
}

func TestRenderFrameLateWhenUnderpowered(t *testing.T) {
	d := NewIntelGen9()
	budget := 1.0 / 30
	frame := workload.Frame{Load: 0.9, MemRatio: 0.3}
	stats := d.RenderFrame(frame, budget, State{FreqIdx: 0, Slices: 1}, State{FreqIdx: 0, Slices: 1})
	if !stats.Late {
		t.Fatal("heavy frame at minimum configuration must miss the deadline")
	}
}

func TestReconfigPenalty(t *testing.T) {
	d := NewIntelGen9()
	budget := 1.0 / 30
	frame := workload.Frame{Load: 0.3, MemRatio: 0.3}
	st := State{FreqIdx: 8, Slices: 2}
	same := d.RenderFrame(frame, budget, st, st)
	changed := d.RenderFrame(frame, budget, st, State{FreqIdx: 8, Slices: 3})
	if !changed.Reconfig || same.Reconfig {
		t.Fatal("reconfig flag wrong")
	}
	if changed.EnergyGPU <= same.EnergyGPU {
		t.Fatal("slice reconfiguration must cost energy")
	}
}

func TestIdleSlicesLeak(t *testing.T) {
	// The premise of slice gating: a light frame on 3 slices costs more
	// than the same frame on 1 slice at moderately higher frequency.
	d := NewIntelGen9()
	budget := 1.0 / 30
	frame := workload.Frame{Load: 0.1, MemRatio: 0.2}
	wide := d.RenderFrame(frame, budget, State{FreqIdx: 0, Slices: 3}, State{FreqIdx: 0, Slices: 3})
	narrow := d.RenderFrame(frame, budget, State{FreqIdx: 4, Slices: 1}, State{FreqIdx: 4, Slices: 1})
	if wide.Late || narrow.Late {
		t.Fatal("light frame should meet deadline in both states")
	}
	if narrow.EnergyGPU >= wide.EnergyGPU {
		t.Fatalf("1 slice (%v J) should beat 3 slices (%v J) for a light frame",
			narrow.EnergyGPU, wide.EnergyGPU)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	d := NewIntelGen9()
	for s := 1; s <= 3; s++ {
		prev := 0.0
		for f := 0; f < len(d.OPPs); f++ {
			p := d.Power(State{FreqIdx: f, Slices: s})
			if p <= prev {
				t.Fatalf("power not monotone at f=%d s=%d", f, s)
			}
			prev = p
		}
	}
}

func TestIdlePowerBelowRenderPower(t *testing.T) {
	d := NewIntelGen9()
	f := func(a, b uint8) bool {
		st := d.Clamp(State{FreqIdx: int(a) % 17, Slices: 1 + int(b)%3})
		return d.IdlePower(st) < d.Power(st)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTemperatureRaisesLeakage(t *testing.T) {
	d := NewIntelGen9()
	st := State{FreqIdx: 8, Slices: 3}
	cool := d.Power(st)
	d.Temp = 80
	hot := d.Power(st)
	if hot <= cool {
		t.Fatalf("hot power %v <= cool %v", hot, cool)
	}
}

func TestEnergyBreakdownOrdering(t *testing.T) {
	d := NewIntelGen9()
	budget := 1.0 / 30
	frame := workload.Frame{Load: 0.5, MemRatio: 0.3}
	st := State{FreqIdx: 10, Slices: 2}
	stats := d.RenderFrame(frame, budget, st, st)
	if stats.EnergyPKG <= stats.EnergyGPU {
		t.Fatal("package energy must include CPU on top of GPU")
	}
	if stats.EnergyDRAM <= 0 || stats.MemBytes <= 0 {
		t.Fatal("memory accounting missing")
	}
}

func TestFrameWorkRoundTrip(t *testing.T) {
	// A frame with load L rendered at max state must take L fraction of
	// the usable budget plus the fixed overhead.
	d := NewIntelGen9()
	budget := 1.0 / 30
	frame := workload.Frame{Load: 0.4, MemRatio: 0.3}
	work := d.FrameWork(frame, budget)
	tr := d.RenderTime(work, d.MaxState())
	want := 0.4*(budget-d.FixedOverhead) + d.FixedOverhead
	if math.Abs(tr-want) > 1e-12 {
		t.Fatalf("render time %v, want %v", tr, want)
	}
}

func TestClamp(t *testing.T) {
	d := NewIntelGen9()
	c := d.Clamp(State{FreqIdx: -3, Slices: 99})
	if c.FreqIdx != 0 || c.Slices != d.MaxSlices {
		t.Fatalf("clamp = %+v", c)
	}
}
