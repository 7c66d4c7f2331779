package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the CPU time the whole process has used, user plus
// system, across every goroutine: fleet workers, the in-process cloud
// and the Go runtime.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one measured unit of work inside the timed window: a round
// over the game mix (serve), a learning episode (relearn) or a pass over
// the corpus (ingest).
type pass struct {
	wall     time.Duration
	cpu      time.Duration
	sessions int64
	events   int64
	peakHeap uint64
}

// heapWatch samples the live heap in the background and keeps the peak
// since the last reset. Sampling every few milliseconds costs one
// runtime/metrics read, far below the work it watches.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapWatch) observe() {
	v := liveHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// take returns the peak since the last take and restarts the window.
func (h *heapWatch) take() uint64 {
	h.observe()
	return h.peak.Swap(liveHeap())
}

// close stops the sampler and waits for it to exit.
func (h *heapWatch) close() {
	close(h.stop)
	h.wg.Wait()
}

// window measures a sequence of passes: it times each one, charges it
// the process CPU and the peak heap, and tracks the Go runtime's
// allocation and GC counters across the whole window.
type window struct {
	heap     *heapWatch
	passes   []pass
	start    time.Time
	deadline time.Time
	rt0      runtimeCounters

	passStart time.Time
	passCPU   time.Duration
}

func newWindow(seconds float64) *window {
	w := &window{heap: startHeapWatch(), start: time.Now(), rt0: readRuntime()}
	w.deadline = w.start.Add(time.Duration(seconds * float64(time.Second)))
	return w
}

// minPasses keeps medians meaningful when a pass is long relative to the
// measured window.
const minPasses = 3

// more reports whether another pass should start.
func (w *window) more() bool {
	return len(w.passes) < minPasses || time.Now().Before(w.deadline)
}

func (w *window) begin() {
	w.heap.take()
	w.passCPU = cpuTime()
	w.passStart = time.Now()
}

func (w *window) end(sessions, events int64) {
	p := pass{
		wall:     time.Since(w.passStart),
		cpu:      cpuTime() - w.passCPU,
		sessions: sessions,
		events:   events,
	}
	p.peakHeap = w.heap.take()
	w.passes = append(w.passes, p)
}

// finish stops the heap sampler and fills the end-to-end throughput,
// CPU and memory metrics plus the runtime layer from the passes: each is
// the median over passes, so one disturbed pass cannot move it.
func (w *window) finish(r *run) {
	w.heap.close()
	rt := readRuntime().sub(w.rt0)
	var rates, cpus, heaps []float64
	var sessions int64
	for _, p := range w.passes {
		if p.wall > 0 && p.events > 0 {
			rates = append(rates, float64(p.events)/p.wall.Seconds())
		}
		if p.sessions > 0 {
			cpus = append(cpus, float64(p.cpu)/1e6/float64(p.sessions))
		}
		heaps = append(heaps, float64(p.peakHeap)/(1<<20))
		sessions += p.sessions
	}
	r.e2e["events_per_s"] = median(rates)
	r.e2e["cpu_ms_per_session"] = median(cpus)
	r.e2e["peak_heap_mb"] = median(heaps)
	if sessions > 0 {
		r.layer["runtime.alloc_mb"] = rt.allocBytes / (1 << 20) / float64(sessions)
		r.layer["runtime.gc_cycles"] = rt.gcCycles / float64(sessions)
	}
	if rt.cpuTotal > 0 {
		r.layer["runtime.gc_cpu_frac"] = rt.cpuGC / rt.cpuTotal
	}
}

// runtimeCounters are the Go runtime's cumulative allocation, GC-cycle
// and CPU-class counters.
type runtimeCounters struct {
	allocBytes, gcCycles, cpuGC, cpuTotal float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeCounters{allocBytes: v[0], gcCycles: v[1], cpuGC: v[2], cpuTotal: v[3]}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - o.allocBytes,
		gcCycles:   c.gcCycles - o.gcCycles,
		cpuGC:      c.cpuGC - o.cpuGC,
		cpuTotal:   c.cpuTotal - o.cpuTotal,
	}
}

// allocBytes reads the cumulative heap bytes allocated by the process.
func allocBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// opLatency collects the latencies of a workload's closed-loop operation
// by class: the game a session played, the round a refresh ended, the
// batch an upload carried. Classes differ in latency by design.
type opLatency map[string][]float64

func (o opLatency) add(class string, ms float64) { o[class] = append(o[class], ms) }

// p50 is each class's median latency, combined over classes by geometric
// mean: every class counts equally, so which class happens to sit at the
// pooled median cannot move the figure.
func (o opLatency) p50() float64 {
	if len(o) == 0 {
		return 0
	}
	var logSum float64
	for _, xs := range o {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(o)))
}

// all pools every class's latencies.
func (o opLatency) all() []float64 {
	var xs []float64
	for _, c := range o {
		xs = append(xs, c...)
	}
	return xs
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return safeDiv(sum, float64(len(xs)))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// A run performs its set-up at least setupMinRepeats times and until
// setupMinWall has passed (at most setupMaxRepeats times); setup_s is the
// median, so neither a cold first repetition nor one disturbed by the
// host moves it, even when one set-up takes only milliseconds.
const (
	setupMinRepeats = 7
	setupMaxRepeats = 64
	setupMinWall    = 3 * time.Second
)

// timeSetup repeats fn, records the median wall time as setup_s, and
// returns the last repetition's product; release, when not nil, frees the
// products of the earlier repetitions.
func timeSetup[T any](r *run, fn func() (T, error), release func(T)) (T, error) {
	var walls []float64
	start := time.Now()
	for {
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return v, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		n := len(walls)
		if n >= setupMaxRepeats || n >= setupMinRepeats && time.Since(start) >= setupMinWall {
			r.e2e["setup_s"] = median(walls)
			return v, nil
		}
		if release != nil {
			release(v)
		}
	}
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
