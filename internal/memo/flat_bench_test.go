package memo

import (
	"fmt"
	"testing"

	"snip/internal/obs"
)

// Flat-backend microbenchmarks, mirrored on the map-backend ones in
// bench_test.go. The Hit/Miss pair and the size sweep run in ci.sh's
// allocation gate: the whole flat probe path must stay 0 allocs/op.

func flatBenchTable(b *testing.B, n int) *FlatTable {
	b.Helper()
	ft, err := Flatten(SynthTable(n))
	if err != nil {
		b.Fatal(err)
	}
	return ft
}

func BenchmarkFlatLookupHit(b *testing.B) {
	ft := flatBenchTable(b, 2048)
	resolve := SynthHit(2048, 777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := ft.Lookup("tap", resolve); !ok {
			b.Fatal("expected hit")
		}
	}
}

// BenchmarkFlatLookupHitInstrumented pins that the live metrics the
// facade's Table.Instrument attaches add no allocation to the probe
// (ci.sh gates it with the rest of the FlatLookupHit family).
func BenchmarkFlatLookupHitInstrumented(b *testing.B) {
	ft := flatBenchTable(b, 2048)
	ft.SetMetrics(NewTableMetrics(obs.NewRegistry(), "snip"))
	resolve := SynthHit(2048, 777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := ft.Lookup("tap", resolve); !ok {
			b.Fatal("expected hit")
		}
	}
}

func BenchmarkFlatLookupMiss(b *testing.B) {
	ft := flatBenchTable(b, 2048)
	resolve := SynthMiss(2048, 777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := ft.Lookup("tap", resolve); ok {
			b.Fatal("expected miss")
		}
	}
}

// sweepResolvers precomputes a ring of hit resolvers spread across the
// whole table. Sweep benches rotate through it so successive probes land
// on different buckets — a fixed resolver would keep one bucket's cache
// lines hot and hide the table-scale effect the sweep exists to show.
func sweepResolvers(n int) []Resolver {
	res := make([]Resolver, 4096)
	for i := range res {
		res[i] = SynthHit(n, (i*2654435761)%n)
	}
	return res
}

// BenchmarkFlatLookupSweep sizes the flat probe across table scales —
// the in-tree slice of fleetbench's 1k–10M -lookup-sweep (the big sizes
// live there; the ci allocation gate runs this one).
func BenchmarkFlatLookupSweep(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 15, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ft := flatBenchTable(b, n)
			res := sweepResolvers(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := ft.Lookup("tap", res[i%len(res)]); !ok {
					b.Fatal("expected hit")
				}
			}
		})
	}
}

// BenchmarkMapLookupSweep is the map-backend twin of the flat sweep, so
// one -bench run shows both columns of the comparison.
func BenchmarkMapLookupSweep(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 15, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			mt := SynthTable(n)
			res := sweepResolvers(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := mt.Lookup("tap", res[i%len(res)]); !ok {
					b.Fatal("expected hit")
				}
			}
		})
	}
}

func BenchmarkFlatLoad(b *testing.B) {
	img, err := SynthTable(1 << 15).FlatImage()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFlatTable(img); err != nil {
			b.Fatal(err)
		}
	}
}
