package memo

import (
	"fmt"
	"sort"

	"snip/internal/trace"
	"snip/internal/units"
)

// SelectedField is one necessary input chosen by PFI.
type SelectedField struct {
	Name     string
	Category trace.Category
	Size     units.Size
	// NameHash caches trace.HashString(Name). keys folds every selected
	// field's name hash into the lookup key on EVERY event, so rehashing
	// the name per lookup would put a string walk on the hottest path in
	// the repo. Canonicalize fills it; zero means "not yet computed".
	NameHash uint64
}

// Selection maps each event type to its necessary input fields, in a
// canonical (sorted) order. This is what PFI produces and what the cloud
// ships to the device in an OTA update.
type Selection map[string][]SelectedField

// Canonicalize sorts each type's fields by name so key hashing is stable
// and precomputes each field's NameHash for the lookup hot path.
func (s Selection) Canonicalize() {
	for _, fs := range s {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
		for i := range fs {
			fs[i].NameHash = trace.HashString(fs[i].Name)
		}
	}
}

// Width returns the summed byte size of the selected fields for an event
// type.
func (s Selection) Width(eventType string) units.Size {
	var w units.Size
	for _, f := range s[eventType] {
		w += f.Size
	}
	return w
}

// StateWidth returns the byte size of the selected NON-In.Event fields —
// the necessary inputs that must be loaded and compared per candidate
// entry at lookup time (the Fig. 11c "PFI Input Size"). In.Event fields
// are folded into the first-level hash index, mirroring the paper's
// "indexed with the event hash-code" design.
func (s Selection) StateWidth(eventType string) units.Size {
	var w units.Size
	for _, f := range s[eventType] {
		if f.Category != trace.InEvent {
			w += f.Size
		}
	}
	return w
}

// TotalWidth sums the selected width across all event types.
func (s Selection) TotalWidth() units.Size {
	var w units.Size
	for t := range s {
		w += s.Width(t)
	}
	return w
}

// CategoryBytes returns the selected bytes per input category across all
// event types (the Fig. 9 color coding).
func (s Selection) CategoryBytes() map[trace.Category]units.Size {
	out := make(map[trace.Category]units.Size)
	for _, fs := range s {
		for _, f := range fs {
			out[f.Category] += f.Size
		}
	}
	return out
}

// String summarizes the selection.
func (s Selection) String() string {
	types := make([]string, 0, len(s))
	for t := range s {
		types = append(types, t)
	}
	sort.Strings(types)
	out := ""
	for _, t := range types {
		out += fmt.Sprintf("%s[%d fields, %v] ", t, len(s[t]), s.Width(t))
	}
	return out
}

// absentSentinel marks a selected field missing from a record or from the
// runtime context when keying.
const absentSentinel = 0xdeadbeefcafef00d

// Resolver supplies live values for selected fields at lookup time:
// "event.<type>.<field>" names resolve from the pending event object,
// "state.*" names from the game's memory. It returns ok=false for fields
// that cannot be read before execution (e.g. In.Extern data not yet
// fetched).
type Resolver func(name string) (uint64, bool)

// keys computes the two-level key of a record under the selection: the
// hash of the selected In.Event fields (the bucket index) and the hash of
// the selected state/extern fields (compared linearly within the bucket).
func (s Selection) keys(eventType string, value func(name string) (uint64, bool)) (eventKey, stateKey uint64) {
	eventKey, stateKey = 1469598103934665603, 1469598103934665603
	for _, sf := range s[eventType] {
		v := uint64(absentSentinel)
		if rv, ok := value(sf.Name); ok {
			v = rv
		}
		nh := sf.NameHash
		if nh == 0 { // selection built without Canonicalize
			nh = trace.HashString(sf.Name)
		}
		if sf.Category == trace.InEvent {
			eventKey = trace.Combine(eventKey, nh)
			eventKey = trace.Combine(eventKey, v)
		} else {
			stateKey = trace.Combine(stateKey, nh)
			stateKey = trace.Combine(stateKey, v)
		}
	}
	return eventKey, stateKey
}

// KeysFromRecord computes the two-level key of a profiled record.
func (s Selection) KeysFromRecord(r *trace.Record) (eventKey, stateKey uint64) {
	return s.keys(r.EventType, func(name string) (uint64, bool) {
		f, ok := r.Input(name)
		return f.Value, ok
	})
}

// KeysFromRuntime computes the two-level key from live values.
func (s Selection) KeysFromRuntime(eventType string, resolve Resolver) (eventKey, stateKey uint64) {
	return s.keys(eventType, resolve)
}

// SnipEntry is one row of the deployed table: the outputs to apply when
// the necessary inputs match. Entries are immutable after the build so a
// deployed table can be probed from any number of goroutines at once.
type SnipEntry struct {
	StateKey uint64
	Outputs  []trace.Field
	Instr    int64 // dynamic-instruction weight of the profiled execution
}

// bucket is the candidate list behind one event hash-code, scanned
// linearly at lookup time exactly as the paper describes ("all the other
// necessary inputs are loaded and compared against the corresponding
// important input entries").
type bucket struct {
	order []*SnipEntry // insertion order, the scan order
	byKey map[uint64]*SnipEntry
}

// SnipTable is the table builder: Insert folds profiled records into
// buckets, first indexed by event type and the hash of the selected
// In.Event fields (the "event hash-code"), then by the necessary state
// inputs. Freeze ends the build, and Flatten compiles the result into
// the FlatTable that everything serves and publishes.
//
// Its map Lookup is kept as the reference implementation: the
// figure-identity test in internal/schemes and fleetbench's
// -lookup-sweep gate measure the flat backend against it. Lookup is
// strictly read-only and the table keeps no runtime counters; per-lookup
// costs come back as return values.
type SnipTable struct {
	sel     Selection
	buckets map[string]map[uint64]*bucket
	// stateWidth caches Selection.StateWidth per event type; Lookup needs
	// it on every event and the selection is immutable once deployed.
	stateWidth map[string]units.Size

	conflictedRows int64 // build-time only

	// frozen marks the build finished: Insert panics.
	frozen bool
}

// LookupStats is the caller-owned accumulator for lookup costs. The
// tables themselves are read-only at probe time (a shared table cannot
// carry unsynchronized tallies), so each session, device or test owns
// one of these and feeds it the per-call return values of Lookup.
type LookupStats struct {
	Lookups       int64 `json:"lookups"`
	Hits          int64 `json:"hits"`
	Probes        int64 `json:"probes"`         // candidate entries compared
	ComparedBytes int64 `json:"compared_bytes"` // Σ probes × state width (Fig. 11c)
}

// Observe folds one Lookup outcome into the stats. Nil-safe, so callers
// that don't track costs pass a nil accumulator.
func (s *LookupStats) Observe(probes int64, comparedBytes units.Size, hit bool) {
	if s == nil {
		return
	}
	s.Lookups++
	s.Probes += probes
	s.ComparedBytes += int64(comparedBytes)
	if hit {
		s.Hits++
	}
}

// Merge adds another accumulator (e.g. a per-device tally into the fleet
// aggregate).
func (s *LookupStats) Merge(o LookupStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Probes += o.Probes
	s.ComparedBytes += o.ComparedBytes
}

// HitRate returns hits per lookup (0 when empty).
func (s LookupStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// BuildSnip constructs the table from a profile under a selection.
func BuildSnip(d *trace.Dataset, sel Selection) *SnipTable {
	t := NewSnipTable(sel)
	for _, r := range d.Records {
		t.Insert(r)
	}
	return t
}

// NewSnipTable returns an empty table under a selection.
func NewSnipTable(sel Selection) *SnipTable {
	sel.Canonicalize()
	t := &SnipTable{
		sel:        sel,
		buckets:    make(map[string]map[uint64]*bucket),
		stateWidth: make(map[string]units.Size, len(sel)),
	}
	for et := range sel {
		t.stateWidth[et] = sel.StateWidth(et)
	}
	return t
}

// Selection returns the table's field selection.
func (t *SnipTable) Selection() Selection { return t.sel }

// Freeze ends the build. Any later Insert panics, so a table handed to
// Flatten or probed as the reference cannot change underneath it.
func (t *SnipTable) Freeze() { t.frozen = true }

// Insert adds one profiled record. Records whose keys collide with a
// different output record keep the first-profiled outputs; the conflict
// count predicts the runtime error rate when PFI under-selects.
// Inserting into a frozen table is a programming error and panics.
func (t *SnipTable) Insert(r *trace.Record) {
	if t.frozen {
		panic("memo: Insert on a frozen SnipTable")
	}
	byEvent := t.buckets[r.EventType]
	if byEvent == nil {
		byEvent = make(map[uint64]*bucket)
		t.buckets[r.EventType] = byEvent
	}
	ek, sk := t.sel.KeysFromRecord(r)
	b := byEvent[ek]
	if b == nil {
		b = &bucket{byKey: make(map[uint64]*SnipEntry)}
		byEvent[ek] = b
	}
	if e, ok := b.byKey[sk]; ok {
		if !sameOutputs(e.Outputs, r.Outputs) {
			t.conflictedRows++
		}
		return
	}
	e := &SnipEntry{StateKey: sk, Outputs: r.Outputs, Instr: r.Instr}
	b.byKey[sk] = e
	b.order = append(b.order, e)
}

func sameOutputs(a, b []trace.Field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

// Lookup is the reference probe: the contract FlatTable.Lookup honors
// call for call. On a hit it returns the entry; either way it returns
// the lookup cost: how many candidate entries were compared (probes) and
// the total necessary-input bytes loaded and compared (probes ×
// per-entry state width). Lookup never mutates the table.
func (t *SnipTable) Lookup(eventType string, resolve Resolver) (entry *SnipEntry, probes int64, comparedBytes units.Size, ok bool) {
	byEvent := t.buckets[eventType]
	width := t.stateWidth[eventType]
	if byEvent == nil {
		return nil, 0, 0, false
	}
	ek, sk := t.sel.KeysFromRuntime(eventType, resolve)
	b := byEvent[ek]
	if b == nil {
		return nil, 1, width, false
	}
	// The real implementation scans the bucket comparing necessary
	// inputs entry by entry; the map gives us the answer, the order
	// index gives us the honest cost.
	e, hit := b.byKey[sk]
	if !hit {
		probes = int64(len(b.order))
	} else {
		for i, cand := range b.order {
			if cand == e {
				probes = int64(i + 1)
				break
			}
		}
	}
	if probes == 0 {
		probes = 1
	}
	comparedBytes = units.Size(probes) * width
	if !hit {
		return nil, probes, comparedBytes, false
	}
	return e, probes, comparedBytes, true
}

// Rows returns the total number of entries.
func (t *SnipTable) Rows() int {
	n := 0
	for _, byEvent := range t.buckets {
		for _, b := range byEvent {
			n += len(b.order)
		}
	}
	return n
}

// Buckets returns the number of first-level (event hash-code) buckets.
func (t *SnipTable) Buckets() int {
	n := 0
	for _, byEvent := range t.buckets {
		n += len(byEvent)
	}
	return n
}

// MaxBucket returns the largest bucket's entry count — the worst-case
// comparison chain.
func (t *SnipTable) MaxBucket() int {
	max := 0
	for _, byEvent := range t.buckets {
		for _, b := range byEvent {
			if len(b.order) > max {
				max = len(b.order)
			}
		}
	}
	return max
}

// Size returns the deployed table size: per entry, the selected input
// width of its type plus its stored output record.
func (t *SnipTable) Size() units.Size {
	var total units.Size
	for et, byEvent := range t.buckets {
		w := t.sel.Width(et)
		for _, b := range byEvent {
			for _, e := range b.order {
				rowOut := units.Size(0)
				for _, f := range e.Outputs {
					rowOut += f.Size
				}
				total += w + rowOut + 16 // key hash + bookkeeping
			}
		}
	}
	return total
}

// Conflicts returns how many profile rows disagreed with an existing
// entry during the build.
func (t *SnipTable) Conflicts() int64 { return t.conflictedRows }

// FlatImage compiles the table into its flat image. The walk is in
// canonical order, so two tables with identical rows produce identical
// bytes. The intended flow is Freeze-then-compile: the image of a table
// that keeps mutating is just stale.
func (t *SnipTable) FlatImage() ([]byte, error) {
	return compileFlat(t.sel, t.sortedBuckets())
}

// Flatten ends a build: it freezes t, compiles it and reloads it through
// its image, so the result is exactly what a device would serve after an
// OTA fetch.
func Flatten(t *SnipTable) (*FlatTable, error) {
	t.Freeze()
	img, err := t.FlatImage()
	if err != nil {
		return nil, err
	}
	return LoadFlatTable(img)
}

// sortedBuckets lists the table's buckets in canonical order — sorted
// types, sorted event keys, insertion order within a bucket — as the
// image compiler takes them. Entries are copied by value into one
// backing slice; their Outputs still alias the table's.
func (t *SnipTable) sortedBuckets() []flatBucket {
	types := make([]string, 0, len(t.buckets))
	for et := range t.buckets {
		types = append(types, et)
	}
	sort.Strings(types)
	entries := make([]SnipEntry, 0, t.Rows())
	var out []flatBucket
	for _, et := range types {
		byEvent := t.buckets[et]
		eks := make([]uint64, 0, len(byEvent))
		for ek := range byEvent {
			eks = append(eks, ek)
		}
		sort.Slice(eks, func(i, j int) bool { return eks[i] < eks[j] })
		for _, ek := range eks {
			first := len(entries)
			for _, e := range byEvent[ek].order {
				entries = append(entries, *e)
			}
			out = append(out, flatBucket{et: et, ek: ek, entries: entries[first:len(entries):len(entries)]})
		}
	}
	return out
}

// Fingerprint returns a deterministic digest of the table's contents:
// every entry's event type, keys, instruction weight and output fields,
// folded in canonical order. Two tables with identical rows produce
// identical fingerprints regardless of map iteration order, and a
// FlatTable fingerprints equal to the SnipTable it was compiled from.
func (t *SnipTable) Fingerprint() uint64 {
	h := trace.HashString("snip-table-v1")
	buckets := t.sortedBuckets()
	for i, b := range buckets {
		if i == 0 || b.et != buckets[i-1].et {
			h = trace.Combine(h, trace.HashString(b.et))
		}
		h = trace.Combine(h, b.ek)
		for _, e := range b.entries {
			h = trace.Combine(h, e.StateKey)
			h = trace.Combine(h, uint64(e.Instr))
			for _, f := range e.Outputs {
				h = trace.Combine(h, trace.HashString(f.Name))
				h = trace.Combine(h, f.Value)
			}
		}
	}
	return h
}
