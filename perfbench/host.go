package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is one reading of the process and host counters the
// end-to-end metrics are deltas of.
type procSample struct {
	wall        time.Time
	cpu         time.Duration // user+sys of this process
	allocObjs   uint64
	allocBytes  uint64
	gcCycles    uint64
	gcPause     time.Duration
	steal, busy uint64 // host jiffies from /proc/stat
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// processCPU is this process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSample {
	var s procSample
	s.cpu = processCPU()
	metrics.Read(rtSamples)
	s.allocObjs = rtSamples[0].Value.Uint64()
	s.allocBytes = rtSamples[1].Value.Uint64()
	s.gcCycles = rtSamples[2].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPause = time.Duration(ms.PauseTotalNs)
	s.steal, s.busy = readSteal()
	s.wall = time.Now()
	return s
}

// readSteal returns the host's steal jiffies and all jiffies from the
// aggregate cpu line of /proc/stat; zeros where it cannot be read.
func readSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealPct is the host CPU share stolen by other tenants between a and b.
func stealPct(a, b procSample) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// heapPeak samples the live heap (bytes still reachable after the last
// GC cycle) every 5ms until stopped. It keeps the maximum of each
// one-second window and reports their median: the live heap is the
// program's retained state, and the median window drops the odd cycle
// whose GC happened to catch a burst of in-flight buffers.
type heapPeak struct {
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		for n := 1; ; n++ {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if n%200 == 0 {
				h.peaks = append(h.peaks, float64(peak))
				peak = 0
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median window peak in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks) / (1 << 20)
}

// window is the process-level cost of one timed phase.
type window struct {
	ops                 int
	wall                time.Duration
	cpu                 time.Duration
	allocObjs, allocB   uint64
	gcCycles            uint64
	gcPause             time.Duration
	stealPct, peakHeapM float64
}

func measureWindow(a, b procSample, ops int, peakMB float64) window {
	return window{
		ops: ops, wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu,
		allocObjs: b.allocObjs - a.allocObjs, allocB: b.allocBytes - a.allocBytes,
		gcCycles: b.gcCycles - a.gcCycles, gcPause: b.gcPause - a.gcPause,
		stealPct: stealPct(a, b), peakHeapM: peakMB,
	}
}

func (w window) perOp(v float64) float64 {
	if w.ops == 0 {
		return 0
	}
	return v / float64(w.ops)
}

func (w window) String() string {
	return fmt.Sprintf("%d ops in %.2fs, host steal %.1f%%", w.ops, w.wall.Seconds(), w.stealPct)
}
