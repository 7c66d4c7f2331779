package memo

import (
	"testing"

	"snip/internal/trace"
)

func tableWith(t *testing.T, eventType string, hash uint64, val uint64) *FlatTable {
	t.Helper()
	tab := NewSnipTable(Selection{})
	tab.Insert(&trace.Record{
		EventType: eventType, EventHash: hash,
		Outputs: []trace.Field{{Name: "x", Category: trace.OutHistory, Size: 8, Value: val}},
	})
	return mustFlatten(t, tab)
}

// TestSharedGenerationAndRollback pins the generation/rollback contract
// the mispredict guard depends on: generations never tear, one Rollback
// restores the displaced snapshot under its original generation, and a
// second Rollback fails (the retained snapshot is consumed).
func TestSharedGenerationAndRollback(t *testing.T) {
	good := tableWith(t, "touch", 1, 100)
	bad := tableWith(t, "touch", 1, 999)

	s := NewShared(good)
	if g := s.Generation(); g != 1 {
		t.Fatalf("initial generation %d, want 1", g)
	}
	if _, ok := s.Rollback(); ok {
		t.Fatal("rollback before any swap succeeded")
	}

	gen := s.Swap(bad)
	if gen != 2 || s.Generation() != 2 || s.Version() != 2 {
		t.Fatalf("after swap: gen %d (want 2), Generation %d, Version %d", gen, s.Generation(), s.Version())
	}
	tab, g := s.LoadGen()
	if g != 2 || tab.Fingerprint() != bad.Fingerprint() {
		t.Fatalf("LoadGen after swap: gen %d, fingerprint mismatch %v", g, tab.Fingerprint() != bad.Fingerprint())
	}

	restored, ok := s.Rollback()
	if !ok || restored != 1 {
		t.Fatalf("rollback: ok=%v gen=%d, want ok=true gen=1", ok, restored)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation after rollback %d, want 1", s.Generation())
	}
	if s.Version() != 2 {
		t.Fatalf("version after rollback %d, want 2 (monotonic)", s.Version())
	}
	if got := s.Load().Fingerprint(); got != good.Fingerprint() {
		t.Fatal("rollback did not restore the displaced table")
	}
	if s.Rollbacks() != 1 {
		t.Fatalf("rollback counter %d, want 1", s.Rollbacks())
	}

	if _, ok := s.Rollback(); ok {
		t.Fatal("second rollback succeeded; retained snapshot should be consumed")
	}

	// A fresh swap after a rollback resumes the monotonic version count
	// and re-arms exactly one rollback.
	next := tableWith(t, "touch", 1, 555)
	if gen := s.Swap(next); gen != 3 {
		t.Fatalf("swap after rollback got gen %d, want 3", gen)
	}
	restored, ok = s.Rollback()
	if !ok || restored != 1 {
		t.Fatalf("rollback after re-swap: ok=%v gen=%d, want the displaced gen-1 table", ok, restored)
	}
}
