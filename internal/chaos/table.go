package chaos

import "snip/internal/memo"

// poisonMask is XORed into output values of poisoned entries. Any
// non-zero constant works: the point is that a poisoned entry replays
// outputs that differ from the ground truth, which is exactly what
// shadow verification exists to catch.
const poisonMask = 0xBAD5EED0DEADBEEF

// MaybePoisonTable returns a corrupted copy of an OTA-fetched table when
// TablePoisonRate > 0: a fraction of entries have their output values
// XORed with a constant, so memo hits on those entries replay wrong
// outputs (the paper's mispredict failure mode, induced on purpose). The
// copy is a flat table like its source, so the guard exercises the
// serving path the fleet actually runs. The input table is never
// modified — devices already holding it keep a clean snapshot, which is
// what makes Rollback meaningful. With the rate at zero (or a nil
// injector) the original table is returned untouched. Which entries are
// poisoned is deterministic: the decision stream is derived from the
// profile seed and the table's content fingerprint, and entries are
// visited in the table's canonical stored order.
func (i *Injector) MaybePoisonTable(t *memo.FlatTable) (*memo.FlatTable, int) {
	if i == nil || i.prof.TablePoisonRate <= 0 || t == nil {
		return t, 0
	}
	src := i.source(tagTable, t.Fingerprint())
	poisoned := 0
	// Remap hands each entry over with private outputs and recompiles the
	// same keys, so it cannot fail on a table that loaded; if it ever
	// did, the clean table is served and nothing is counted.
	bad, err := t.Remap(func(e *memo.SnipEntry) {
		if len(e.Outputs) == 0 || !src.Bool(i.prof.TablePoisonRate) {
			return
		}
		for fi := range e.Outputs {
			e.Outputs[fi].Value ^= poisonMask
		}
		poisoned++
	})
	if err != nil || poisoned == 0 {
		return t, 0
	}
	i.count(&i.entriesPoisoned, "", int64(poisoned))
	i.count(&i.tablesPoisoned, "table_poisoned", 1)
	return bad, poisoned
}
