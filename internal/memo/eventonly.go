package memo

import (
	"snip/internal/trace"
	"snip/internal/units"
)

// EventOnlyTable models the §IV-B design: records are keyed only on the
// In.Event fields. The table is small — In.Event objects are 2–640 bytes
// and heavily quantized — but the same event can map to different outputs
// depending on In.History/In.Extern context the key cannot see, which
// makes a fraction of the table ambiguous and its short-circuits
// erroneous (Fig. 8).
type EventOnlyTable struct {
	inWidth  units.Size // max In.Event record width observed
	outWidth units.Size
	rows     map[uint64]*eventRow
}

type eventRow struct {
	outputs     map[uint64][]trace.Field // distinct output records by hash
	first       uint64                   // output hash the table would serve
	firstFields []trace.Field
	hits        int
	hitInstr    int64
}

// BuildEventOnly constructs the In.Event-indexed table from a profile.
func BuildEventOnly(d *trace.Dataset) *EventOnlyTable {
	t := &EventOnlyTable{rows: make(map[uint64]*eventRow)}
	t.outWidth = d.UnionOutputWidth()
	eventNames := make(map[string]bool)
	for _, f := range d.InputFieldUniverse() {
		if f.Category == trace.InEvent {
			eventNames[f.Name] = true
			t.inWidth += f.Size
		}
	}
	th := typeHashes{}
	for _, r := range d.Records {
		key := trace.Combine(r.EventHash, th.of(r.EventType))
		row, ok := t.rows[key]
		outHash := r.OutputHash()
		if !ok {
			row = &eventRow{outputs: map[uint64][]trace.Field{}, first: outHash, firstFields: r.Outputs}
			row.outputs[outHash] = r.Outputs
			t.rows[key] = row
			continue
		}
		// Subsequent occurrence: a table hit.
		row.hits++
		row.hitInstr += r.Instr
		if _, seen := row.outputs[outHash]; !seen {
			// Same In.Event key, different outputs: the §IV-B ambiguity.
			row.outputs[outHash] = r.Outputs
		}
	}
	return t
}

// Rows returns the number of distinct In.Event keys.
func (t *EventOnlyTable) Rows() int { return len(t.rows) }

// Size returns rows × (In.Event record + output record).
func (t *EventOnlyTable) Size() units.Size {
	return units.Size(int64(len(t.rows))) * (t.inWidth + t.outWidth)
}

// Stats summarizes the §IV-B findings for this table over its build
// profile.
type EventOnlyStats struct {
	// Coverage is the instruction-weighted fraction of execution whose
	// In.Event key recurred (the table could serve it).
	Coverage float64
	// Ambiguous is the instruction-weighted fraction of execution whose
	// key maps to MORE than one distinct output record — short-circuiting
	// those may serve the wrong output.
	Ambiguous float64
	// ErrTempFields / ErrHistoryFields / ErrExternFields break down the
	// erroneous output fields produced when ambiguous rows serve their
	// first-seen output (Fig. 8b's 44% / 56% split).
	ErrTempFields    int
	ErrHistoryFields int
	ErrExternFields  int
}

// Evaluate replays the profile against the built table, reproducing the
// paper's coverage/ambiguity/error analysis.
func (t *EventOnlyTable) Evaluate(d *trace.Dataset) EventOnlyStats {
	var st EventOnlyStats
	total := d.TotalInstr()
	if total == 0 {
		return st
	}
	seen := make(map[uint64]bool, len(t.rows))
	var coveredInstr, ambiguousInstr int64
	th := typeHashes{}
	for _, r := range d.Records {
		key := trace.Combine(r.EventHash, th.of(r.EventType))
		row := t.rows[key]
		if row == nil {
			continue
		}
		if !seen[key] {
			seen[key] = true // first occurrence populates the row
			continue
		}
		coveredInstr += r.Instr
		if len(row.outputs) > 1 {
			ambiguousInstr += r.Instr
		}
		// Serve the first-seen output; count mismatching fields.
		predicted := make(map[string]uint64, len(row.firstFields))
		for _, f := range row.firstFields {
			predicted[f.Name] = f.Value
		}
		for _, f := range r.Outputs {
			if pv, ok := predicted[f.Name]; ok && pv == f.Value {
				continue
			}
			switch f.Category {
			case trace.OutTemp:
				st.ErrTempFields++
			case trace.OutHistory:
				st.ErrHistoryFields++
			case trace.OutExtern:
				st.ErrExternFields++
			}
		}
	}
	st.Coverage = float64(coveredInstr) / float64(total)
	st.Ambiguous = float64(ambiguousInstr) / float64(total)
	return st
}
