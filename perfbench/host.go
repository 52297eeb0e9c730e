package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fingerprint identifies the host and the code a result came from.
type fingerprint struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	Seed       uint64
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d",
		f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Commit, f.Seed)
}

// hostFingerprint reads the fingerprint; root is the repository root.
func hostFingerprint(root string, seed uint64) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Seed:       seed,
	}
}

// gitCommit resolves HEAD without running git; a checkout that is not a
// repository reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads /proc/stat; ok is false where it is unavailable.
func readCPUTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var t cpuTicks
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already included in user and nice.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTicks{}, false
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, true
	}
	return cpuTicks{}, false
}

// stealShare returns the share of host CPU time stolen by the hypervisor
// between two readings, or -1 when unknown.
func stealShare(a, b cpuTicks, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around a measured window.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mHeapInUse  = "/memory/classes/heap/objects:bytes"
)

// runtimeSample is one reading of the runtime counters the benchmark uses.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

// window measures the process-level costs of a timed window: wall time,
// CPU, allocation, GC, host steal and peak heap in use (sampled by a
// goroutine that stop ends).
type window struct {
	start    time.Time
	cpu      time.Duration
	rt       runtimeSample
	ticks    cpuTicks
	ticksOK  bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
	peakHeap uint64
}

// windowTotals is what a window measured.
type windowTotals struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      time.Duration
	peakHeap   uint64
	steal      float64
}

// heapSampleEvery is the peak-heap sampling period.
const heapSampleEvery = 2 * time.Millisecond

func startWindow() *window {
	w := &window{stopCh: make(chan struct{})}
	w.ticks, w.ticksOK = readCPUTicks()
	w.rt = readRuntime()
	w.cpu = processCPU()
	w.start = time.Now()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		s := []metrics.Sample{{Name: mHeapInUse}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > w.peakHeap {
				w.peakHeap = v
			}
			select {
			case <-w.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the window and returns its totals.
func (w *window) stop() windowTotals {
	wall := time.Since(w.start)
	cpu := processCPU() - w.cpu
	rt := readRuntime()
	ticks, ok := readCPUTicks()
	close(w.stopCh)
	w.wg.Wait()
	return windowTotals{
		wall:       wall,
		cpu:        cpu,
		allocBytes: rt.allocBytes - w.rt.allocBytes,
		gcCycles:   rt.gcCycles - w.rt.gcCycles,
		gcCPU:      time.Duration((rt.gcCPU - w.rt.gcCPU) * float64(time.Second)),
		peakHeap:   w.peakHeap,
		steal:      stealShare(w.ticks, ticks, w.ticksOK, ok),
	}
}
