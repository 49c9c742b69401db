package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics (0 for an empty sample). vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// windows is how many consecutive groups a timed phase's samples are split
// into for windowed statistics.
const windows = 10

// windowed returns the median, across windows consecutive groups of the
// samples in the order they were taken, of each group's q-quantile. Host
// noise comes in bursts (CPU steal on a shared machine); a burst then
// moves the groups it overlaps rather than the whole sample. With fewer
// than three samples per group it is the plain q-quantile.
func windowed(ops []float64, q float64) float64 {
	if len(ops) < 3*windows {
		return quantile(ops, q)
	}
	per := make([]float64, windows)
	for i := range per {
		per[i] = quantile(ops[i*len(ops)/windows:(i+1)*len(ops)/windows], q)
	}
	return quantile(per, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stopwatch times a stretch of work in wall and process CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// add adds the time since s started to *wall and *cpu.
func (s stopwatch) add(wall, cpu *time.Duration) {
	*wall += time.Since(s.wall)
	*cpu += cpuTime() - s.cpu
}

// cpuTime returns the user plus system CPU time the process has used, on
// all its threads. Unlike wall time it leaves out the time a shared host
// ran other guests instead of this one (CPU steal), where the kernel
// accounts for it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the live heap (bytes marked live by a GC) after the
// GC cycles that end while it runs. A finalizer on a sentinel object runs
// after every cycle that collects it, and re-arms itself, so nearly every
// cycle is observed rather than those a timer happens to catch.
type heapSampler struct {
	mu      sync.Mutex
	start   time.Time
	stopped bool
	at      []time.Duration
	live    []uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

// startHeapSampler collects what set-up left behind and starts sampling
// from the live heap that remains.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{start: time.Now()}
	h.record(liveHeap())
	h.arm()
	return h
}

func (h *heapSampler) record(live uint64) {
	h.at = append(h.at, time.Since(h.start))
	h.live = append(h.live, live)
}

// sentinel is big enough and holds a pointer, so the tiny allocator,
// whose objects may never be finalized, does not place it.
type sentinel struct {
	_ *byte
	_ [24]byte
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		live := liveHeap()
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.stopped {
			return
		}
		h.record(live)
		h.arm()
	})
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Stop ends sampling after a timed phase of the given number of units of
// work and returns, in MiB, the highest live heap of any cycle and the
// peak the benchmark gates on. The latter splits the phase into windows
// equal slices of time, or one per unit when there are fewer units, takes
// the highest live heap in each slice and returns the median across the
// slices that hold a sample. Every slice then lasts at least as long as
// an average unit, and the units repeat the same work, so a heap rise
// anywhere in a unit reaches every slice; the median drops a
// lone cycle whose mark a burst of CPU steal stretched, since the objects
// allocated while a cycle marks count as live. With a single unit it is
// the highest cycle. The finalizer chain ends at the next cycle.
func (h *heapSampler) Stop(units int) (highest, peak float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	n := max(min(windows, units), 1)
	span := time.Since(h.start)
	peaks := make([]uint64, n)
	for i, at := range h.at {
		w := min(int(int64(at)*int64(n)/int64(span+1)), n-1)
		peaks[w] = max(peaks[w], h.live[i])
	}
	var seen []float64
	for _, p := range peaks {
		if p > 0 {
			seen = append(seen, float64(p)/(1<<20))
		}
	}
	return slices.Max(seen), quantile(seen, 0.5)
}

// allocBytes reads the cumulative bytes allocated by the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// hostInfo describes the machine a report was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo; "unknown" where
// that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
