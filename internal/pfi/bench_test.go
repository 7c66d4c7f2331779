package pfi

import (
	"testing"

	"snip/internal/games"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// gameProfiles profiles every bundled game with the given number of
// Baseline sessions of the given length, merged per game in seed order.
func gameProfiles(tb testing.TB, sessions int, length units.Time) []*trace.Dataset {
	tb.Helper()
	var out []*trace.Dataset
	for _, g := range games.Names() {
		ds := &trace.Dataset{Game: g}
		for s := 0; s < sessions; s++ {
			r, err := schemes.Profile(g, 0xA1+uint64(s), length)
			if err != nil {
				tb.Fatalf("profile %s: %v", g, err)
			}
			ds.Merge(r.Dataset)
		}
		out = append(out, ds)
	}
	return out
}

// BenchmarkPFIRun times one PFI pass over every bundled game's profile
// (2 sessions × 15 s each) on one worker; run it with -benchmem to see
// the allocations a selection costs.
func BenchmarkPFIRun(b *testing.B) {
	profiles := gameProfiles(b, 2, 15*units.Second)
	cfg := DefaultConfig()
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range profiles {
			if _, err := Run(d, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
