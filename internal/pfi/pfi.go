// Package pfi implements Permutation Feature Importance-based selection
// of necessary inputs — the core of SNIP (§V). Given a profiled dataset
// of event executions, it:
//
//  1. trains a table predictor (necessary-input values → output record)
//     per event type,
//  2. ranks every input field by permutation importance: how much the
//     prediction error grows when that field's column is shuffled across
//     the validation records, and
//  3. backward-eliminates fields, least important first, while the
//     erroneous-output constraint holds — keeping errors out of the
//     Out.History/Out.Extern categories that would corrupt execution
//     (§IV-B), while tolerating slack in Out.Temp.
//
// The output is a memo.Selection: for each event type, the small set of
// input fields (typically a few hundred bytes out of megabytes — the
// paper's ≈0.2%) that must be compared at runtime to short-circuit the
// event safely, plus the Fig. 9 trim curve.
//
// Every step above retrains and replays the table predictor many times,
// so each event type's records are laid out once, up front, as dense
// columns: one row-major []uint64 of input values per split, with
// columns in sorted field-name order, and outputs interned to small
// integers. Keys then read row slices instead of looking fields up by
// name, and a permuted column resumes each key from its cached hash
// state before that column. The key hash itself is the one memo builds
// at runtime, unchanged, so a selection means the same thing on device.
package pfi

import (
	"fmt"
	"io"
	"sort"

	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/parallel"
	"snip/internal/rng"
	"snip/internal/trace"
	"snip/internal/units"
)

// Config tunes the selection process.
type Config struct {
	// TrainFrac splits each type's records into a training prefix and a
	// validation suffix (temporal split, as continuous profiling would).
	TrainFrac float64
	// MaxNonTempError is ε: the maximum tolerated rate of erroneous
	// Out.History/Out.Extern fields among short-circuited predictions.
	MaxNonTempError float64
	// MaxTempError bounds Out.Temp field errors; the paper tolerates
	// these (wrong frame tile for <16 ms) so the default is generous.
	MaxTempError float64
	// Permutations is how many shuffles average each field's importance.
	Permutations int
	// Seed drives the permutation shuffles.
	Seed uint64
	// ForceInclude lists field names a developer marked as necessary
	// (Option 1 in §V-B); they are never eliminated.
	ForceInclude map[string]bool
	// ForceExclude lists field names a developer marked droppable.
	ForceExclude map[string]bool
	// Log, when non-nil, receives a line per elimination decision.
	Log io.Writer
	// Workers bounds the fan-out across event types and across the
	// per-field permutation scoring (<= 0 means parallel.DefaultWorkers).
	// Results are identical for every worker count: each type and each
	// field owns a pre-Split rng.Source, so the shuffle streams do not
	// depend on scheduling.
	Workers int
	// Obs, when non-nil, receives search-progress counters (types
	// searched, fields scored, drops attempted/accepted). Write-only:
	// the Result is identical with Obs set or nil.
	Obs *obs.Registry

	metrics *searchMetrics
}

// searchMetrics counts PFI search progress. All handles are nil-safe.
type searchMetrics struct {
	types         *obs.Counter
	fields        *obs.Counter
	permutations  *obs.Counter
	dropsTried    *obs.Counter
	dropsAccepted *obs.Counter
	selectedBytes *obs.Gauge
}

func newSearchMetrics(reg *obs.Registry) *searchMetrics {
	if reg == nil {
		return nil
	}
	return &searchMetrics{
		types:         reg.Counter("snip_pfi_types_total", "event types searched"),
		fields:        reg.Counter("snip_pfi_fields_evaluated_total", "input fields scored for permutation importance"),
		permutations:  reg.Counter("snip_pfi_permutations_total", "column shuffles evaluated"),
		dropsTried:    reg.Counter("snip_pfi_drops_attempted_total", "backward-elimination drops attempted"),
		dropsAccepted: reg.Counter("snip_pfi_drops_accepted_total", "drops that kept errors within bounds"),
		selectedBytes: reg.Gauge("snip_pfi_selected_bytes", "total width of the current selection"),
	}
}

// DefaultConfig returns the standard tuning.
func DefaultConfig() Config {
	return Config{
		TrainFrac: 0.6,
		// The paper's operating point (Fig. 9): ~1% erroneous output
		// fields tolerated; recovering the last 1% would require ALL
		// remaining input fields.
		MaxNonTempError: 0.002,
		// Out.Temp errors are tolerable by design (§IV-B): a wrong frame
		// tile shows for <16 ms. No constraint.
		MaxTempError: 0.10,
		Permutations: 3,
		Seed:         42,
	}
}

// FieldImportance is one field's permutation-importance measurement.
type FieldImportance struct {
	Name       string
	Category   trace.Category
	Size       units.Size
	EventType  string
	Importance float64 // error increase when the column is permuted
}

// TrimPoint is one step of the Fig. 9 curve: the remaining selected
// bytes after a (attempted) field drop, and the resulting error rates.
type TrimPoint struct {
	SelectedBytes   units.Size
	NonTempError    float64
	TempError       float64
	Coverage        float64
	DroppedField    string
	DroppedCategory trace.Category
	Accepted        bool
}

// Metrics summarizes a selection's validation quality.
type Metrics struct {
	Coverage     float64 // instruction-weighted fraction of validation hits
	NonTempError float64 // erroneous History/Extern fields per predicted such field
	TempError    float64 // erroneous Temp fields per predicted Temp field
	FieldError   float64 // all erroneous fields per predicted field
}

// Result is the outcome of a PFI run.
type Result struct {
	Selection  memo.Selection
	Importance []FieldImportance
	Curve      []TrimPoint
	Final      Metrics
	// InputBytesTotal is the union input width PFI started from;
	// SelectedBytes what survived — the paper's "1.2 kB out of 1 MB".
	InputBytesTotal units.Size
	SelectedBytes   units.Size
}

// fieldMeta describes one input field location within one event type.
type fieldMeta struct {
	name     string
	hash     uint64 // trace.HashString(name), folded into every key
	category trace.Category
	size     units.Size
}

// absent is the key value of a field a record does not carry (matches
// memo's lookup key).
const absent = uint64(0xdeadbeefcafef00d)

// keySeed is the initial key hash state, before any field is folded in.
const keySeed = uint64(1469598103934665603)

// outSlot is one interned output name's value in a train record's
// prediction row.
type outSlot struct {
	value uint64
	ok    bool
}

// outOcc is one output field of a validation record, in record order.
type outOcc struct {
	out   int32 // interned output name; -1 if no train record wrote it
	temp  bool
	value uint64
}

// typeData is one event type's training and validation data in columnar
// form. Input column c holds field fields[c] for every record, so a key
// reads a row slice instead of looking fields up by name.
type typeData struct {
	eventType      string
	fields         []fieldMeta // sorted by name
	nTrain, nValid int
	trainIn        []uint64 // nTrain × len(fields), row-major
	validIn        []uint64 // nValid × len(fields), row-major
	nOut           int      // interned output names of the train records
	pred           []outSlot
	validInstr     []int64
	validOut       []outOcc
	validOff       []int // validOut[validOff[i]:validOff[i+1]] is valid record i's
}

func (td *typeData) trainRow(r int) []uint64 {
	nf := len(td.fields)
	return td.trainIn[r*nf : (r+1)*nf]
}

func (td *typeData) validRow(i int) []uint64 {
	nf := len(td.fields)
	return td.validIn[i*nf : (i+1)*nf]
}

// column returns the input column of the named field, or -1 if the type
// never saw it.
func (td *typeData) column(name string) int {
	c := sort.Search(len(td.fields), func(c int) bool { return td.fields[c].name >= name })
	if c < len(td.fields) && td.fields[c].name == name {
		return c
	}
	return -1
}

// Run executes PFI over a profile and returns the necessary-input
// selection.
func Run(d *trace.Dataset, cfg Config) (*Result, error) {
	if len(d.Records) == 0 {
		return nil, fmt.Errorf("pfi: empty profile")
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		return nil, fmt.Errorf("pfi: TrainFrac must be in (0,1), got %v", cfg.TrainFrac)
	}
	if cfg.Permutations <= 0 {
		cfg.Permutations = 1
	}
	r := rng.New(cfg.Seed)
	cfg.metrics = newSearchMetrics(cfg.Obs)
	res := &Result{Selection: memo.Selection{}}
	res.InputBytesTotal = d.UnionInputWidth()

	// Pre-split one source per event type IN TYPE ORDER before fanning
	// out, so each type's shuffle stream is a pure function of the seed
	// and the type's position — never of goroutine interleaving.
	types := splitByType(d, cfg.TrainFrac)
	srcs := make([]*rng.Source, len(types))
	for i := range types {
		srcs[i] = r.Split()
	}
	type typeResult struct {
		sel   []memo.SelectedField
		imps  []FieldImportance
		curve []TrimPoint
	}
	// Elimination logging writes one line per decision; keep the type
	// fan-out serial when a log is attached so lines stay in type order.
	typeWorkers := cfg.Workers
	if cfg.Log != nil {
		typeWorkers = 1
	}
	results, err := parallel.Map(typeWorkers, len(types), func(i int) (typeResult, error) {
		sel, imps, curve := selectForType(types[i], cfg, srcs[i])
		return typeResult{sel: sel, imps: imps, curve: curve}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, tr := range results {
		res.Selection[types[i].eventType] = tr.sel
		res.Importance = append(res.Importance, tr.imps...)
		res.Curve = append(res.Curve, tr.curve...)
	}
	res.Selection.Canonicalize()
	res.SelectedBytes = res.Selection.TotalWidth()
	res.Final = evaluate(types, res.Selection)
	if m := cfg.metrics; m != nil {
		m.selectedBytes.Set(int64(res.SelectedBytes))
	}
	return res, nil
}

// splitByType partitions the dataset per event type with a temporal
// train/validation split and resolves each type's columns.
func splitByType(d *trace.Dataset, trainFrac float64) []*typeData {
	byType := make(map[string][]*trace.Record)
	var order []string
	for _, rec := range d.Records {
		if _, ok := byType[rec.EventType]; !ok {
			order = append(order, rec.EventType)
		}
		byType[rec.EventType] = append(byType[rec.EventType], rec)
	}
	var out []*typeData
	for _, t := range order {
		all := byType[t]
		n := int(float64(len(all)) * trainFrac)
		if n < 1 {
			n = 1
		}
		if n >= len(all) {
			n = len(all) - 1
		}
		if n < 1 {
			continue // a single record cannot be split; skip the type
		}
		out = append(out, newTypeData(t, all, n))
	}
	return out
}

// newTypeData lays out one type's records, the first nTrain of which
// train the model, as dense columns.
func newTypeData(eventType string, all []*trace.Record, nTrain int) *typeData {
	train, valid := all[:nTrain], all[nTrain:]
	fields, col := fieldUniverse(all)
	td := &typeData{
		eventType: eventType, fields: fields,
		nTrain: len(train), nValid: len(valid),
		trainIn: inputMatrix(train, col, len(fields)),
		validIn: inputMatrix(valid, col, len(fields)),
	}

	// A train record predicts its outputs by interned name; a repeated
	// name keeps its last value.
	outs := make(map[string]int32)
	for _, rec := range train {
		for _, f := range rec.Outputs {
			if _, ok := outs[f.Name]; !ok {
				outs[f.Name] = int32(len(outs))
			}
		}
	}
	td.nOut = len(outs)
	td.pred = make([]outSlot, td.nTrain*td.nOut)
	for r, rec := range train {
		row := td.pred[r*td.nOut : (r+1)*td.nOut]
		for _, f := range rec.Outputs {
			row[outs[f.Name]] = outSlot{value: f.Value, ok: true}
		}
	}

	// A validation record is scored on every output it wrote, repeats
	// included.
	td.validInstr = make([]int64, td.nValid)
	td.validOff = make([]int, td.nValid+1)
	nOcc := 0
	for _, rec := range valid {
		nOcc += len(rec.Outputs)
	}
	td.validOut = make([]outOcc, 0, nOcc)
	for i, rec := range valid {
		td.validInstr[i] = rec.Instr
		for _, f := range rec.Outputs {
			o, ok := outs[f.Name]
			if !ok {
				o = -1
			}
			td.validOut = append(td.validOut, outOcc{out: o, temp: f.Category == trace.OutTemp, value: f.Value})
		}
		td.validOff[i+1] = len(td.validOut)
	}
	return td
}

// fieldUniverse returns every input field the records carry, sorted by
// name, with its column index by name. A field keeps the category of its
// first occurrence and its largest size.
func fieldUniverse(recs []*trace.Record) ([]fieldMeta, map[string]int) {
	seen := make(map[string]int)
	var out []fieldMeta
	for _, rec := range recs {
		for _, f := range rec.Inputs {
			if i, ok := seen[f.Name]; ok {
				if f.Size > out[i].size {
					out[i].size = f.Size
				}
				continue
			}
			seen[f.Name] = len(out)
			out = append(out, fieldMeta{name: f.Name, hash: trace.HashString(f.Name), category: f.Category, size: f.Size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	for c, f := range out {
		seen[f.name] = c
	}
	return out, seen
}

// inputMatrix lays out the records' input values row-major by column. A
// field a record lacks reads as absent; a repeated name keeps its first
// value, as Record.Input does.
func inputMatrix(recs []*trace.Record, col map[string]int, nf int) []uint64 {
	m := make([]uint64, len(recs)*nf)
	set := make([]int, nf) // set[c] == i+1 once row i has a value for column c
	for i, rec := range recs {
		row := m[i*nf : (i+1)*nf]
		for c := range row {
			row[c] = absent
		}
		for _, f := range rec.Inputs {
			if c := col[f.Name]; set[c] != i+1 {
				set[c] = i + 1
				row[c] = f.Value
			}
		}
	}
	return m
}

// fieldKey is one key field of a model: its name hash and its input
// column, or -1 for a field the type never saw (always absent).
type fieldKey struct {
	hash uint64
	col  int
}

// model is the table predictor over a field subset: each key maps to the
// first train row that has it.
type model map[uint64]int32

// train refits m to the train records keyed on fields. It clears m
// rather than allocating a new map, since backward elimination refits
// once per step.
func (m model) train(td *typeData, fields []fieldKey) {
	clear(m)
	for r := 0; r < td.nTrain; r++ {
		k := keyOf(td.trainRow(r), fields)
		if _, ok := m[k]; !ok {
			m[k] = int32(r)
		}
	}
}

// keyOf hashes a row's values of the given fields. The hash folds name
// hash then value per field in sorted-name order — the same key memo
// builds at runtime, so it must not change.
func keyOf(row []uint64, fields []fieldKey) uint64 {
	h := keySeed
	for _, fk := range fields {
		v := absent
		if fk.col >= 0 {
			v = row[fk.col]
		}
		h = trace.Combine(h, fk.hash)
		h = trace.Combine(h, v)
	}
	return h
}

// validKeys fills dst with every validation row's key under fields.
func validKeys(td *typeData, fields []fieldKey, dst []uint64) []uint64 {
	dst = dst[:0]
	for i := 0; i < td.nValid; i++ {
		dst = append(dst, keyOf(td.validRow(i), fields))
	}
	return dst
}

// evalCounts accumulates the error metrics of one evaluation pass.
type evalCounts struct {
	totalInstr, hitInstr    int64
	predNonTemp, errNonTemp int64
	predTemp, errTemp       int64
}

func (c evalCounts) metrics() Metrics {
	var m Metrics
	if c.totalInstr > 0 {
		m.Coverage = float64(c.hitInstr) / float64(c.totalInstr)
	}
	if c.predNonTemp > 0 {
		m.NonTempError = float64(c.errNonTemp) / float64(c.predNonTemp)
	}
	if c.predTemp > 0 {
		m.TempError = float64(c.errTemp) / float64(c.predTemp)
	}
	if t := c.predNonTemp + c.predTemp; t > 0 {
		m.FieldError = float64(c.errNonTemp+c.errTemp) / float64(t)
	}
	return m
}

// evalModel replays the validation records against the model; keys[i]
// is validation record i's key under the model's fields.
func evalModel(m model, td *typeData, keys []uint64) evalCounts {
	var c evalCounts
	for i, k := range keys {
		c.totalInstr += td.validInstr[i]
		r, ok := m[k]
		if !ok {
			continue
		}
		c.hitInstr += td.validInstr[i]
		pred := td.pred[int(r)*td.nOut : (int(r)+1)*td.nOut]
		for _, o := range td.validOut[td.validOff[i]:td.validOff[i+1]] {
			match := o.out >= 0 && pred[o.out].ok && pred[o.out].value == o.value
			if o.temp {
				c.predTemp++
				if !match {
					c.errTemp++
				}
			} else {
				c.predNonTemp++
				if !match {
					c.errNonTemp++
				}
			}
		}
	}
	return c
}

// selectForType runs importance ranking and backward elimination for one
// event type.
func selectForType(td *typeData, cfg Config, r *rng.Source) ([]memo.SelectedField, []FieldImportance, []TrimPoint) {
	if m := cfg.metrics; m != nil {
		m.types.Inc()
	}
	nf := len(td.fields)
	all := make([]fieldKey, nf)
	for c, f := range td.fields {
		all[c] = fieldKey{hash: f.hash, col: c}
	}
	full := make(model, td.nTrain)
	full.train(td, all)

	// prefix[i*nf+c] is validation row i's key state under the full
	// model once column c's name hash is folded in, just before its
	// value. A permuted column resumes every key from there, so scoring
	// column c re-hashes only columns c.. instead of the whole row.
	prefix := make([]uint64, td.nValid*nf)
	keys := make([]uint64, td.nValid)
	for i := range keys {
		row, h := td.validRow(i), keySeed
		for c, f := range td.fields {
			h = trace.Combine(h, f.hash)
			prefix[i*nf+c] = h
			h = trace.Combine(h, row[c])
		}
		keys[i] = h
	}
	base := evalModel(full, td, keys).metrics()

	// Permutation importance: shuffle one column's values across the
	// validation records and measure the error increase. Errors in
	// History/Extern outputs are weighted 10× over Temp — the categories
	// whose corruption poisons future execution. Each field is scored on
	// its own pre-Split source (split in sorted-name order), so the
	// scores are independent of how the fields are scheduled across
	// workers — Workers=1 and Workers=N shuffle identically.
	score := func(m Metrics) float64 { return 10*m.NonTempError + m.TempError }
	fieldSrcs := make([]*rng.Source, nf)
	for c := range fieldSrcs {
		fieldSrcs[c] = r.Split()
	}
	imps, _ := parallel.Map(cfg.Workers, nf, func(c int) (FieldImportance, error) {
		fr := fieldSrcs[c]
		vals := make([]uint64, td.nValid)
		permKeys := make([]uint64, td.nValid)
		var total float64
		for p := 0; p < cfg.Permutations; p++ {
			for i := range vals {
				vals[i] = td.validIn[i*nf+c]
			}
			fr.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			for i, v := range vals {
				h := trace.Combine(prefix[i*nf+c], v)
				row := td.validRow(i)
				for k := c + 1; k < nf; k++ {
					h = trace.Combine(h, td.fields[k].hash)
					h = trace.Combine(h, row[k])
				}
				permKeys[i] = h
			}
			perm := evalModel(full, td, permKeys).metrics()
			total += score(perm) - score(base)
			if m := cfg.metrics; m != nil {
				m.permutations.Inc()
			}
		}
		if m := cfg.metrics; m != nil {
			m.fields.Inc()
		}
		f := td.fields[c]
		return FieldImportance{
			Name: f.name, Category: f.category, Size: f.size,
			EventType: td.eventType, Importance: total / float64(cfg.Permutations),
		}, nil
	})

	// Backward elimination, least important first. Larger fields break
	// ties so the table shrinks fastest.
	order := make([]int, nf)
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := imps[order[i]], imps[order[j]]
		if a.Importance != b.Importance {
			return a.Importance < b.Importance
		}
		return a.Size > b.Size
	})

	selected := make([]bool, nf)
	for c := range selected {
		selected[c] = true
	}
	nSel := nf
	var width units.Size
	for _, f := range td.fields {
		width += f.size
	}
	var curve []TrimPoint
	sub := make(model, td.nTrain)
	subset := make([]fieldKey, 0, nf)
	for _, c := range order {
		cand := imps[c]
		if cfg.ForceInclude[cand.Name] {
			continue
		}
		if !cfg.ForceExclude[cand.Name] && nSel == 1 {
			break // keep at least one field unless explicitly excluded
		}
		selected[c] = false
		nSel--
		width -= cand.Size
		subset = subset[:0]
		for k, ok := range selected {
			if ok {
				subset = append(subset, all[k])
			}
		}
		keys = validKeys(td, subset, keys)
		sub.train(td, subset)
		m := evalModel(sub, td, keys).metrics()
		ok := m.NonTempError <= cfg.MaxNonTempError && m.TempError <= cfg.MaxTempError
		if cfg.ForceExclude[cand.Name] {
			ok = true
		}
		if sm := cfg.metrics; sm != nil {
			sm.dropsTried.Inc()
			if ok {
				sm.dropsAccepted.Inc()
			}
		}
		curve = append(curve, TrimPoint{
			SelectedBytes: width, NonTempError: m.NonTempError, TempError: m.TempError,
			Coverage: m.Coverage, DroppedField: cand.Name, DroppedCategory: cand.Category,
			Accepted: ok,
		})
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "pfi[%s]: drop %-28s imp=%.4f -> cov=%5.1f%% errNT=%.3f%% errT=%5.1f%% accepted=%v\n",
				td.eventType, cand.Name, cand.Importance, 100*m.Coverage, 100*m.NonTempError, 100*m.TempError, ok)
		}
		if !ok {
			selected[c] = true // revert the drop
			nSel++
			width += cand.Size
		}
	}

	out := make([]memo.SelectedField, 0, nSel)
	for c, ok := range selected {
		if ok {
			f := td.fields[c]
			out = append(out, memo.SelectedField{Name: f.name, Category: f.category, Size: f.size})
		}
	}
	return out, imps, curve
}

// Evaluate measures a selection's quality on a dataset with the given
// train/validation split — usable for selections from any source
// (PFI, developer overrides, ablations).
func Evaluate(d *trace.Dataset, sel memo.Selection, trainFrac float64) Metrics {
	return evaluate(splitByType(d, trainFrac), sel)
}

func evaluate(types []*typeData, sel memo.Selection) Metrics {
	var agg evalCounts
	m := make(model)
	for _, td := range types {
		names := make([]string, 0, len(sel[td.eventType]))
		for _, f := range sel[td.eventType] {
			names = append(names, f.Name)
		}
		sort.Strings(names)
		fields := make([]fieldKey, len(names))
		for i, n := range names {
			fields[i] = fieldKey{hash: trace.HashString(n), col: td.column(n)}
		}
		m.train(td, fields)
		c := evalModel(m, td, validKeys(td, fields, nil))
		agg.totalInstr += c.totalInstr
		agg.hitInstr += c.hitInstr
		agg.predNonTemp += c.predNonTemp
		agg.errNonTemp += c.errNonTemp
		agg.predTemp += c.predTemp
		agg.errTemp += c.errTemp
	}
	return agg.metrics()
}
