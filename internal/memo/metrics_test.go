package memo

import (
	"testing"

	"snip/internal/obs"
)

// TestSnipTableMetrics checks that a builder table served through its
// instrumented flat image reports exactly what the builder's own lookup
// does, and that the counters agree with a caller-owned LookupStats
// accumulation.
func TestSnipTableMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewTableMetrics(reg, "snip")

	bare := benchTable(256)
	inst, err := Flatten(benchTable(256))
	if err != nil {
		t.Fatal(err)
	}
	inst.SetMetrics(m)

	var st LookupStats
	for i := 0; i < 512; i++ {
		r := hitResolver(i) // i >= 256 resolves y values never inserted: misses
		e1, p1, c1, ok1 := bare.Lookup("tap", r)
		e2, p2, c2, ok2 := inst.Lookup("tap", r)
		if ok1 != ok2 || p1 != p2 || c1 != c2 {
			t.Fatalf("i=%d: instrumented lookup diverged: (%v %d %d) vs (%v %d %d)", i, ok1, p1, c1, ok2, p2, c2)
		}
		if ok1 && (e1.StateKey != e2.StateKey) {
			t.Fatalf("i=%d: different entries", i)
		}
		st.Observe(p1, c1, ok1)
	}
	if st.Hits == 0 || st.Hits == st.Lookups {
		t.Fatalf("%d hits over %d lookups: want both hits and misses", st.Hits, st.Lookups)
	}
	if m.Lookups.Value() != 512 || m.Hits.Value() != st.Hits || m.Misses.Value() != st.Lookups-st.Hits {
		t.Fatalf("counters lookups=%d hits=%d misses=%d, want 512/%d/%d",
			m.Lookups.Value(), m.Hits.Value(), m.Misses.Value(), st.Hits, st.Lookups-st.Hits)
	}
	if m.LookupNS.Count() != 512 {
		t.Fatalf("latency histogram has %d observations", m.LookupNS.Count())
	}
	if st.Lookups != m.Lookups.Value() || st.Hits != m.Hits.Value() {
		t.Fatalf("caller stats (%d,%d) disagree with metrics (%d,%d)", st.Lookups, st.Hits, m.Lookups.Value(), m.Hits.Value())
	}
}
