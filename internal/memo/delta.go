package memo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"snip/internal/trace"
)

// Flat-image delta diff/apply: the cloud diffs consecutive SNIPFLT1
// images after every rebuild into a trace.TableDelta (entry-level edits
// keyed by the open-addressing key hashes), and a device patches its
// current image forward by replaying the edits onto its buckets and
// recompiling the canonical image. Because the flat compiler is a
// deterministic function of the table contents, "patch then recompile"
// reproduces the cloud's image byte-exactly — which the mandatory
// ToCRC check proves before the table can reach a memo.Shared swap.
//
// Profiling is append-only (Dataset.Merge) and BuildSnip keeps
// first-profiled entries on conflicts, so under a stable selection a
// rebuild only appends entries to bucket tails and adds buckets: the
// delta is O(new entries). A selection change rewrites every key; the
// diff is still correct but roughly table-sized, and the cloud's
// size check falls back to shipping the full image instead.

// ErrDeltaMismatch is wrapped by every ApplyDelta rejection that means
// "this delta does not belong on this base": base-CRC mismatch, edits
// referencing entries the base does not hold, and a patched image whose
// CRC differs from the delta's ToCRC. A device hitting it (e.g. after a
// guard rollback left it on an older generation than it reported)
// recovers by fetching the full image.
var ErrDeltaMismatch = errors.New("memo: delta does not match base table")

// ArenaCRC returns the CRC32/IEEE of the image's arena — the generation
// identity the delta protocol negotiates with (header field [48:52]).
func (t *FlatTable) ArenaCRC() uint32 {
	return binary.LittleEndian.Uint32(t.img[48:])
}

// walkFlat visits every bucket in stored (canonical) order with its
// owning type name, event key and entry slice.
func (t *FlatTable) walkFlat(fn func(et string, ek uint64, entries []SnipEntry)) {
	byHash := make(map[uint64]string, len(t.types))
	for name, ft := range t.types {
		byHash[ft.hash] = name
	}
	for bi := 0; bi < t.bucketCnt; bi++ {
		rec := t.arena[t.bucketsOff+flatBucketRecLen*bi:]
		th := binary.LittleEndian.Uint64(rec)
		ek := binary.LittleEndian.Uint64(rec[8:])
		first := binary.LittleEndian.Uint32(rec[16:])
		count := binary.LittleEndian.Uint32(rec[20:])
		fn(byHash[th], ek, t.entries[first:uint64(first)+uint64(count)])
	}
}

// selectionToDelta converts a Selection into the trace-level form a
// delta carries (NameHash is derived, not shipped).
func selectionToDelta(sel Selection) map[string][]trace.SelectionField {
	w := make(map[string][]trace.SelectionField, len(sel))
	for et, fs := range sel {
		out := make([]trace.SelectionField, len(fs))
		for i, f := range fs {
			out[i] = trace.SelectionField{Name: f.Name, Category: f.Category, Size: f.Size}
		}
		w[et] = out
	}
	return w
}

// selectionFromDelta rebuilds a canonical Selection from its delta form.
func selectionFromDelta(w map[string][]trace.SelectionField) Selection {
	sel := make(Selection, len(w))
	for et, fs := range w {
		out := make([]SelectedField, len(fs))
		for i, f := range fs {
			out[i] = SelectedField{Name: f.Name, Category: f.Category, Size: f.Size}
		}
		sel[et] = out
	}
	sel.Canonicalize()
	return sel
}

func deltaEntryEqual(a, b *SnipEntry) bool {
	if a.Instr != b.Instr || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	return true
}

// DiffFlat computes the delta that patches old into new: removed keys,
// plus one upsert per added-or-changed entry carrying its scan position
// in the target bucket. The walk order is canonical on both sides, so
// identical inputs produce an identical delta. game and the version
// pair are stamped into the delta for chain bookkeeping; the CRCs come
// from the two images.
func DiffFlat(game string, fromVersion, toVersion int, old, new *FlatTable) (*trace.TableDelta, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("memo: diff: nil table")
	}
	oldEntries := make(map[trace.DeltaKey]*SnipEntry, old.Rows())
	old.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		for i := range entries {
			oldEntries[trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}] = &entries[i]
		}
	})

	d := &trace.TableDelta{
		Game:        game,
		FromVersion: fromVersion,
		ToVersion:   toVersion,
		FromCRC:     old.ArenaCRC(),
		ToCRC:       new.ArenaCRC(),
		Selection:   selectionToDelta(new.sel),
	}
	seen := make(map[trace.DeltaKey]bool, old.Rows())
	new.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		for i := range entries {
			k := trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}
			if prev, ok := oldEntries[k]; ok {
				seen[k] = true
				if deltaEntryEqual(prev, &entries[i]) {
					continue
				}
			}
			d.Upserts = append(d.Upserts, trace.DeltaEntry{
				Key:     k,
				Pos:     uint32(i),
				Instr:   entries[i].Instr,
				Outputs: entries[i].Outputs,
			})
		}
	})
	old.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		for i := range entries {
			k := trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}
			if !seen[k] {
				d.Removed = append(d.Removed, k)
			}
		}
	})
	return d, nil
}

type deltaBucketKey struct {
	et string
	ek uint64
}

// ApplyDelta patches old forward by one generation: replay the delta's
// removals and upserts onto the base's buckets, feed them straight to
// the canonical image compiler, run the image through full
// LoadFlatTable validation, and prove the arena CRC equals the delta's
// ToCRC. A nil error therefore guarantees the result is byte-identical
// to the table the cloud built AND passed the same validation a full OTA
// image would. Apply allocates freely (it is the rare OTA path); the
// returned table's lookup path allocates nothing, like any loaded flat
// table.
func ApplyDelta(old *FlatTable, d *trace.TableDelta) (*FlatTable, error) {
	if old == nil || d == nil {
		return nil, fmt.Errorf("memo: apply: nil input")
	}
	if got := old.ArenaCRC(); got != d.FromCRC {
		return nil, fmt.Errorf("%w: base arena CRC %08x, delta expects %08x", ErrDeltaMismatch, got, d.FromCRC)
	}

	// Materialize the base's buckets as mutable entry slices. Entries are
	// copied by value so the frozen base table is never aliased.
	work := make(map[deltaBucketKey][]SnipEntry)
	old.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		work[deltaBucketKey{et, ek}] = append([]SnipEntry(nil), entries...)
	})

	for _, k := range d.Removed {
		bk := deltaBucketKey{k.Type, k.EventKey}
		entries, ok := work[bk]
		at := -1
		for i := range entries {
			if entries[i].StateKey == k.StateKey {
				at = i
				break
			}
		}
		if !ok || at < 0 {
			return nil, fmt.Errorf("%w: removal of unknown entry %q/%#x/%#x", ErrDeltaMismatch, k.Type, k.EventKey, k.StateKey)
		}
		if len(entries) == 1 {
			delete(work, bk)
		} else {
			work[bk] = append(entries[:at], entries[at+1:]...)
		}
	}

	// Upserts: replace in place when the key exists, otherwise insert at
	// the carried target position. Per-bucket inserts go in ascending
	// position order so each Pos means "scan position in the final
	// bucket" regardless of how the upserts were listed.
	inserts := make(map[deltaBucketKey][]*trace.DeltaEntry)
	for i := range d.Upserts {
		u := &d.Upserts[i]
		bk := deltaBucketKey{u.Key.Type, u.Key.EventKey}
		entries := work[bk]
		replaced := false
		for j := range entries {
			if entries[j].StateKey == u.Key.StateKey {
				entries[j] = SnipEntry{StateKey: u.Key.StateKey, Outputs: u.Outputs, Instr: u.Instr}
				replaced = true
				break
			}
		}
		if !replaced {
			inserts[bk] = append(inserts[bk], u)
		}
	}
	for bk, us := range inserts {
		sort.Slice(us, func(i, j int) bool { return us[i].Pos < us[j].Pos })
		entries := work[bk]
		for _, u := range us {
			at := int(u.Pos)
			if at > len(entries) {
				return nil, fmt.Errorf("%w: upsert %q/%#x/%#x at position %d of %d", ErrDeltaMismatch, u.Key.Type, u.Key.EventKey, u.Key.StateKey, at, len(entries))
			}
			entries = append(entries, SnipEntry{})
			copy(entries[at+1:], entries[at:])
			entries[at] = SnipEntry{StateKey: u.Key.StateKey, Outputs: u.Outputs, Instr: u.Instr}
		}
		work[bk] = entries
	}

	// Recompile through the canonical compiler and revalidate exactly as
	// a full OTA image would be. A duplicate state key inside one bucket
	// would leave an entry unreachable; LoadFlatTable would reject its
	// probe chain, but failing here gives the clearer error.
	buckets := make([]flatBucket, 0, len(work))
	seen := make(map[uint64]bool)
	for bk, entries := range work {
		clear(seen)
		for i := range entries {
			if seen[entries[i].StateKey] {
				return nil, fmt.Errorf("%w: duplicate state key %#x in bucket %q/%#x", ErrDeltaMismatch, entries[i].StateKey, bk.et, bk.ek)
			}
			seen[entries[i].StateKey] = true
		}
		buckets = append(buckets, flatBucket{et: bk.et, ek: bk.ek, entries: entries})
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].et != buckets[j].et {
			return buckets[i].et < buckets[j].et
		}
		return buckets[i].ek < buckets[j].ek
	})
	img, err := compileFlat(selectionFromDelta(d.Selection), buckets)
	if err != nil {
		return nil, fmt.Errorf("memo: apply: %w", err)
	}
	t, err := LoadFlatTable(img)
	if err != nil {
		return nil, fmt.Errorf("memo: apply: %w", err)
	}
	if got := t.ArenaCRC(); got != d.ToCRC {
		return nil, fmt.Errorf("%w: patched arena CRC %08x, delta promises %08x", ErrDeltaMismatch, got, d.ToCRC)
	}
	return t, nil
}

// ApplyDeltaChain applies consecutive deltas oldest-first, verifying
// version continuity between links on top of each link's CRC guards.
func ApplyDeltaChain(base *FlatTable, c *trace.DeltaChain) (*FlatTable, error) {
	if c == nil || len(c.Deltas) == 0 {
		return nil, fmt.Errorf("memo: apply: empty delta chain")
	}
	cur := base
	for i := range c.Deltas {
		d := &c.Deltas[i]
		if i > 0 && d.FromVersion != c.Deltas[i-1].ToVersion {
			return nil, fmt.Errorf("%w: chain gap: link %d goes %d->%d after %d", ErrDeltaMismatch, i, d.FromVersion, d.ToVersion, c.Deltas[i-1].ToVersion)
		}
		next, err := ApplyDelta(cur, d)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}
