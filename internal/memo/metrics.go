package memo

import "snip/internal/obs"

// TableMetrics is the observability hook a served FlatTable carries.
// Handles are nil-safe, so a table with no metrics attached pays one
// pointer check per lookup and nothing else — FlatTable.Lookup stays 0
// allocs/op with metrics on or off (flat_bench_test.go, gated by ci.sh).
// Counters are write-only from the table's point of view: attaching
// metrics never changes lookup results, sizes or figures.
type TableMetrics struct {
	Lookups *obs.Counter
	Hits    *obs.Counter
	Misses  *obs.Counter
	// LookupNS measures the wall-clock latency of a probe. It is the one
	// non-deterministic series in the repo; it feeds dashboards only and
	// never a figure.
	LookupNS *obs.Histogram
}

// NewTableMetrics registers the standard series for one table, labelled
// table=<table>, on the registry. A nil registry
// returns nil, which every table accepts as "uninstrumented".
func NewTableMetrics(reg *obs.Registry, table string) *TableMetrics {
	if reg == nil {
		return nil
	}
	l := `{table="` + table + `"}`
	return &TableMetrics{
		Lookups:  reg.Counter("snip_memo_lookups_total"+l, "table probes"),
		Hits:     reg.Counter("snip_memo_hits_total"+l, "probes that found a matching entry"),
		Misses:   reg.Counter("snip_memo_misses_total"+l, "probes that found no entry"),
		LookupNS: reg.Histogram("snip_memo_lookup_ns"+l, "wall-clock probe latency", obs.NanoBuckets()),
	}
}

// observe records one probe outcome; safe on a nil receiver.
func (m *TableMetrics) observe(hit bool, ns int64) {
	if m == nil {
		return
	}
	m.Lookups.Inc()
	if hit {
		m.Hits.Inc()
	} else {
		m.Misses.Inc()
	}
	m.LookupNS.Observe(ns)
}
