package workload

import (
	"fmt"
	"math/rand"
)

// Frame is one frame of a graphics workload. Load is expressed as the
// fraction of the frame budget the frame takes to render at the *maximum*
// GPU configuration (all slices, peak frequency); MemRatio is the share of
// render work that generates DRAM traffic.
type Frame struct {
	Load     float64
	MemRatio float64
}

// GraphicsTrace is a named per-frame workload trace at a fixed FPS target.
type GraphicsTrace struct {
	Name      string
	TargetFPS float64
	Frames    []Frame
}

// Budget returns the per-frame deadline in seconds.
func (t *GraphicsTrace) Budget() float64 { return 1 / t.TargetFPS }

// traceSpec parameterizes a synthetic game/benchmark trace. meanLoad sets
// how much of the frame budget the title needs at maximum configuration:
// heavy titles (AngryBirds-like) have little slack for the controller to
// exploit, light titles (SharkDash-like) have a lot — this spread produces
// the 5%..58% energy-savings range of the paper's Figure 5.
type traceSpec struct {
	name     string
	meanLoad float64
	variab   float64 // relative load variability
	memRatio float64
	scenes   int // number of scene changes (load level shifts)
	frames   int
}

// fig5Specs lists the ten titles of Figure 5 in x-axis order.
var fig5Specs = []traceSpec{
	{"3DMarkIceStorm", 0.38, 0.15, 0.35, 6, 1800},
	{"AngryBirds", 0.85, 0.07, 0.25, 3, 1800},
	{"AngryBots", 0.45, 0.18, 0.30, 5, 1800},
	{"EpicCitadel", 0.52, 0.14, 0.32, 5, 1800},
	{"FruitNinja", 0.30, 0.20, 0.22, 4, 1800},
	{"GFXBench-trex", 0.60, 0.10, 0.38, 4, 1800},
	{"JungleRun", 0.34, 0.16, 0.24, 5, 1800},
	{"SharkDash", 0.11, 0.12, 0.18, 3, 1800},
	{"TheChase", 0.48, 0.17, 0.36, 6, 1800},
	{"VendettaMark", 0.42, 0.15, 0.30, 5, 1800},
}

// nenamarkSpec is the Minnowboard MAX trace of Figure 2; moderate load with
// strong scene-to-scene variation so the governor genuinely moves the
// frequency at runtime — the condition under which Figure 2 demonstrates
// model tracking.
var nenamarkSpec = traceSpec{"Nenamark2", 0.40, 0.22, 0.30, 10, 1200}

// generate synthesizes the trace: scene-level load plateaus with AR(1)
// intra-scene jitter, matching the plateau-plus-noise structure of real
// frame-time traces.
func (sp traceSpec) generate(fps float64, seed int64) GraphicsTrace {
	rng := rand.New(rand.NewSource(seedFor(sp.name, seed)))
	t := GraphicsTrace{Name: sp.name, TargetFPS: fps, Frames: make([]Frame, sp.frames)}
	sceneLen := sp.frames / max(sp.scenes, 1)
	level := sp.meanLoad
	const rho = 0.9
	jit := 0.0
	for i := range t.Frames {
		if sceneLen > 0 && i%sceneLen == 0 {
			// New scene: re-draw the plateau around the title mean. Scene
			// changes carry most of the variability; frame-to-frame jitter
			// within a scene is small, as in real frame-time traces.
			level = sp.meanLoad * (1 + sp.variab*rng.NormFloat64())
			if level < 0.05 {
				level = 0.05
			}
		}
		jit = rho*jit + (1-rho)*rng.NormFloat64()
		load := level * (1 + 0.5*sp.variab*jit + 0.12*sp.variab*rng.NormFloat64())
		t.Frames[i] = Frame{
			Load:     clamp(load, 0.03, 0.98),
			MemRatio: clamp(sp.memRatio*(1+0.2*rng.NormFloat64()), 0.05, 0.7),
		}
	}
	return t
}

// Fig5Traces returns the ten graphics traces of Figure 5 at the given FPS
// target (the paper uses deadline-driven 30/60 FPS games; we default tests
// to 30).
func Fig5Traces(fps float64, seed int64) []GraphicsTrace {
	out := make([]GraphicsTrace, len(fig5Specs))
	for i, sp := range fig5Specs {
		out[i] = sp.generate(fps, seed)
	}
	return out
}

// Nenamark2 returns the Figure 2 trace.
func Nenamark2(fps float64, seed int64) GraphicsTrace {
	return nenamarkSpec.generate(fps, seed)
}

// TraceByName returns a named graphics trace from the Figure 5 set or
// Nenamark2.
func TraceByName(name string, fps float64, seed int64) (GraphicsTrace, error) {
	if name == nenamarkSpec.name {
		return Nenamark2(fps, seed), nil
	}
	for _, sp := range fig5Specs {
		if sp.name == name {
			return sp.generate(fps, seed), nil
		}
	}
	return GraphicsTrace{}, fmt.Errorf("workload: unknown graphics trace %q", name)
}
