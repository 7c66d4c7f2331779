package schemes

import (
	"reflect"
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/units"
)

// mapReference serves the built SnipTable through the memo.Table
// contract, so a scheme session can run on the map reference lookup.
type mapReference struct{ *memo.SnipTable }

func (mapReference) SetMetrics(*memo.TableMetrics) {}

// The flat table serves exactly what the map reference does: same hits,
// same misses, same probe counts, same served bytes — so every paper
// figure is what the reference lookup would produce. This pins that
// guarantee end to end on every bundled game: a full SNIP session (hits,
// in-bucket misses and unknown-type lookups all occur naturally) must
// produce a deeply equal Result under both, including the energy ledger
// and the per-probe LookupStats.
func TestFlatBackendFigureIdentity(t *testing.T) {
	const dur = 10 * units.Second
	for _, game := range games.Names() {
		t.Run(game, func(t *testing.T) {
			mapTable := buildSnipTable(t, game, 2)
			flatTable, err := memo.Flatten(mapTable)
			if err != nil {
				t.Fatal(err)
			}
			if flatTable.Fingerprint() != mapTable.Fingerprint() {
				t.Fatal("backends disagree on the table fingerprint")
			}

			run := func(tab memo.Table) *Result {
				r, err := Run(Config{
					Game: game, Seed: 1, Duration: dur,
					Scheme: SNIP, Table: tab, EvalCorrectness: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := run(mapReference{mapTable}), run(flatTable)
			if a.Lookup != b.Lookup {
				t.Fatalf("LookupStats diverge: map %+v, flat %+v", a.Lookup, b.Lookup)
			}
			// The meter is an implementation object; everything it feeds
			// (Energy, ByGroup, Breakdown) is compared below.
			a.Meter, b.Meter = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("results diverge across backends:\nmap:  %+v\nflat: %+v", a, b)
			}
		})
	}
}
