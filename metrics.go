package snip

import (
	"io"

	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/parallel"
)

// Metrics is the public handle on the observability layer: a metrics
// registry plus an event-chain tracer. Attach one to Options, a Table,
// or PFIOptions and every instrumented layer (dispatch, memo lookups,
// PFI search, the parallel pool) feeds it.
//
// Instrumentation is strictly observational: a session produces a
// byte-identical Report with Metrics attached or not (pinned by the
// determinism regression tests), and the memo hot path stays
// allocation-free.
type Metrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	spans  *obs.SpanBuffer
}

// NewMetrics creates a registry, an event-chain tracer and a span
// buffer (rings of obs.DefaultTracerCapacity entries) and instruments
// the process-wide parallel fan-out pool.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	parallel.Instrument(reg)
	return &Metrics{
		reg:    reg,
		tracer: obs.NewTracer(obs.DefaultTracerCapacity),
		spans:  obs.NewSpanBuffer(obs.DefaultTracerCapacity),
	}
}

// Registry exposes the underlying registry for advanced callers.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Tracer exposes the underlying event-chain tracer.
func (m *Metrics) Tracer() *obs.Tracer {
	if m == nil {
		return nil
	}
	return m.tracer
}

// Chains returns the retained event chains, oldest first.
func (m *Metrics) Chains() []obs.Chain {
	if m == nil {
		return nil
	}
	return m.tracer.Chains()
}

// SpanBuffer exposes the distributed-tracing span ring. Instrumented
// layers record session/event/lookup/upload spans into it; the same
// trace IDs reappear in the cloud service's /v1/tracez after an upload
// propagates them.
func (m *Metrics) SpanBuffer() *obs.SpanBuffer {
	if m == nil {
		return nil
	}
	return m.spans
}

// Spans returns the retained spans, oldest first.
func (m *Metrics) Spans() []obs.Span {
	if m == nil {
		return nil
	}
	return m.spans.Spans()
}

// WriteSpansJSON writes the retained spans as a JSON array.
func (m *Metrics) WriteSpansJSON(w io.Writer) error { return m.spans.WriteJSON(w) }

// WriteText writes the registry in Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer) error { return m.reg.WritePrometheus(w) }

// WriteJSON writes a JSON snapshot of every series.
func (m *Metrics) WriteJSON(w io.Writer) error { return m.reg.WriteJSON(w) }

// WriteTraceJSON writes the retained event chains as a JSON array.
func (m *Metrics) WriteTraceJSON(w io.Writer) error { return m.tracer.WriteJSON(w) }

// Instrument attaches hit/miss counters and the lookup-latency histogram
// to a deployed table. The instrumented lookup path adds no allocations
// (BenchmarkFlatLookupHitInstrumented, gated by ci.sh). A nil Metrics
// detaches.
func (t *Table) Instrument(m *Metrics) {
	if m == nil {
		t.t.SetMetrics(nil)
		return
	}
	t.t.SetMetrics(memo.NewTableMetrics(m.reg, "snip"))
}
