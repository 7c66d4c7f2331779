package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"snip/internal/obs"
)

// tracer records the traced pass. The pass runs in one goroutine, and
// every call into a layer runs inside a span: an obs.Span kept in memory
// in an obs.SpanBuffer and written out when the run ends. Per-event calls
// (lookup, handler, ledger) are timed one by one but recorded as one span
// per session whose duration is their sum, so the span count stays
// proportional to sessions, not events.
//
// Self time is a span's duration minus the time its child spans cover;
// the pass is serial, so children never overlap and self time is close to
// CPU time. Heap allocation is charged to each opened span from the
// runtime/metrics allocation counter, which is only exact for calls that
// allocate at least a few spans' worth of memory; per-event calls are
// therefore charged together to their enclosing device.dispatch span.
type tracer struct {
	buf   *obs.SpanBuffer
	stack []*openSpan
	seq   uint64

	calls  map[string]int64 // calls made inside spans of this name
	wall   map[string]int64 // summed duration, ns
	self   map[string]int64 // summed self time, ns
	allocB map[string]int64 // heap bytes allocated inside, opened spans only
	allocN map[string]int64 // opened spans measured for allocation

	allocSample []metrics.Sample
	start       time.Time
	cpu0        time.Duration
	total       time.Duration // traced wall, set by stop
	cpu         time.Duration // traced CPU, set by stop
	replayed    int64         // profile records replayed by upload
}

// openSpan is a span in progress.
type openSpan struct {
	ctx      obs.SpanContext
	sp       obs.Span
	start    time.Time
	alloc0   uint64
	childSum int64
}

// spanCapacity bounds the spans kept in memory; the traced passes are
// sized to stay well inside it (about ten spans per device session).
const spanCapacity = 1 << 16

func newTracer() *tracer {
	t := &tracer{
		buf:         obs.NewSpanBuffer(spanCapacity),
		calls:       map[string]int64{},
		wall:        map[string]int64{},
		self:        map[string]int64{},
		allocB:      map[string]int64{},
		allocN:      map[string]int64{},
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
	t.start = time.Now()
	t.cpu0 = cpuTime()
	return t
}

// root opens the root span of a new trace whose ID derives from a seed
// and a salt, the way the program derives its session traces.
func (t *tracer) root(seed uint64, salt, name string) *openSpan {
	ctx := obs.Root(obs.NewTraceID(seed, obs.HashName("perfbench/"+salt)))
	return t.push(ctx, 0, name)
}

// open starts a child span of the innermost open span.
func (t *tracer) open(name string) *openSpan {
	parent := t.stack[len(t.stack)-1].ctx
	t.seq++
	return t.push(parent.Child(t.seq), parent.Span, name)
}

func (t *tracer) push(ctx obs.SpanContext, parent obs.ID, name string) *openSpan {
	o := &openSpan{ctx: ctx, sp: obs.StartSpan(ctx, parent, name, 0)}
	t.stack = append(t.stack, o)
	o.alloc0 = allocBytes(t.allocSample)
	o.start = time.Now()
	return o
}

// close ends the innermost open span, which must be o, charging it calls
// calls into its layer.
func (t *tracer) close(o *openSpan, calls int64) {
	wall := time.Since(o.start).Nanoseconds()
	alloc := allocBytes(t.allocSample) - o.alloc0
	if t.stack[len(t.stack)-1] != o {
		panic("perfbench: tracer spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	name := o.sp.Name
	t.buf.FinishWall(&o.sp, wall)
	t.account(name, wall, wall-o.childSum, calls)
	t.allocB[name] += int64(alloc)
	t.allocN[name]++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childSum += wall
	}
}

// leaf records the per-session span of a per-event layer call: calls
// calls whose timed durations sum to wallNS.
func (t *tracer) leaf(name string, wallNS, calls int64) {
	if calls == 0 {
		return
	}
	parent := t.stack[len(t.stack)-1]
	t.seq++
	ctx := parent.ctx.Child(t.seq)
	sp := obs.StartSpan(ctx, parent.ctx.Span, name, 0)
	t.buf.FinishWall(&sp, wallNS)
	t.account(name, wallNS, wallNS, calls)
	parent.childSum += wallNS
}

func (t *tracer) account(name string, wall, self, calls int64) {
	t.wall[name] += wall
	t.self[name] += self
	t.calls[name] += calls
}

// stop ends the traced pass.
func (t *tracer) stop() {
	t.total = time.Since(t.start)
	t.cpu = cpuTime() - t.cpu0
}

// layerOf names the program layer a span measures, or "" for the
// benchmark's own grouping spans (device.*, relearn.*, ingest.*).
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	switch l {
	case "workload", "events", "memo", "games", "energy", "trace", "cloud", "pfi":
		return l
	}
	return ""
}

// busyFrac is the share of the traced wall spent in a layer's own code.
func (t *tracer) busyFrac(layer string) float64 {
	var self int64
	for name, s := range t.self {
		if layerOf(name) == layer {
			self += s
		}
	}
	return safeDiv(float64(self), float64(t.total.Nanoseconds()))
}

// coverage is the share of the traced wall inside any layer span.
func (t *tracer) coverage() float64 {
	var self int64
	for name, s := range t.self {
		if layerOf(name) != "" {
			self += s
		}
	}
	return safeDiv(float64(self), float64(t.total.Nanoseconds()))
}

// perCallMS is a span name's mean duration per call, in ms.
func (t *tracer) perCallMS(name string) float64 {
	return safeDiv(float64(t.wall[name])/1e6, float64(t.calls[name]))
}

// allocKB is the heap allocated per opened span of that name, in KB.
func (t *tracer) allocKB(name string) float64 {
	return safeDiv(float64(t.allocB[name])/1024, float64(t.allocN[name]))
}

// fill writes the layer metrics every workload's traced pass shares:
// busy fractions, span allocation, coverage and tracing overhead.
func (t *tracer) fill(r *run, sessions int64) {
	for _, l := range []string{"workload", "events", "memo", "games", "trace", "cloud", "pfi"} {
		r.layer[l+".busy_frac"] = t.busyFrac(l)
	}
	r.layer["energy.ledger_busy_frac"] = t.busyFrac("energy")
	for _, name := range []string{
		"workload.generate", "events.synthesize", "device.dispatch",
		"trace.encode", "trace.decode", "cloud.replay",
		"pfi.run", "memo.build", "memo.flatten", "memo.diff", "memo.apply_delta", "memo.load",
	} {
		r.layer[name+".alloc_kb"] = t.allocKB(name)
	}
	r.layer["bench.span_coverage_frac"] = t.coverage()
	if untraced := r.e2e["cpu_ms_per_session"]; untraced > 0 && sessions > 0 {
		traced := msOf(t.cpu) / float64(sessions)
		r.layer["bench.trace_overhead_frac"] = traced/untraced - 1
	}
	if t.buf.Total() > int64(t.buf.Cap()) {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans recorded, only the last %d kept\n", t.buf.Total(), t.buf.Cap())
	}
	if r.opt.spansOut != "" {
		if err := t.writeSpans(r.opt.spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.buf.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary returns the span names ordered by self time, for the human
// readable part of the output.
func (t *tracer) summary() []string {
	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.self[names[i]] > t.self[names[j]] })
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("span %-22s self %6.1f%%  calls %d",
			n, 100*safeDiv(float64(t.self[n]), float64(t.total.Nanoseconds())), t.calls[n]))
	}
	return out
}
