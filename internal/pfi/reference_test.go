package pfi

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/rng"
	"snip/internal/trace"
	"snip/internal/units"
)

// assertMatchesReference runs Run and the row-wise oracle on the same
// profile and configuration and requires identical Results and, when a
// Log is attached, identical elimination logs.
func assertMatchesReference(t *testing.T, name string, d *trace.Dataset, cfg Config) {
	t.Helper()
	var got, want bytes.Buffer
	refCfg := cfg
	if cfg.Log != nil {
		cfg.Log, refCfg.Log = &got, &want
	}
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	ref, err := refRun(d, refCfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("%s: Result differs from the row-wise reference\n got: %+v\nwant: %+v", name, res, ref)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: elimination log differs\n got: %s\nwant: %s", name, got.String(), want.String())
	}
}

func TestRunMatchesReferenceOnGames(t *testing.T) {
	for _, d := range gameProfiles(t, 1, 8*units.Second) {
		g, err := games.New(d.Game)
		if err != nil {
			t.Fatal(err)
		}
		// Force the game's developer overrides in, and force out the
		// first field (by name) that is not one of them.
		forced := DefaultConfig()
		forced.ForceInclude = map[string]bool{}
		for _, f := range g.Overrides() {
			forced.ForceInclude[f] = true
		}
		for _, f := range d.InputFieldUniverse() {
			if !forced.ForceInclude[f.Name] {
				forced.ForceExclude = map[string]bool{f.Name: true}
				break
			}
		}
		for _, base := range []Config{DefaultConfig(), forced} {
			for _, workers := range []int{1, 2} {
				cfg := base
				cfg.Workers = workers
				cfg.Log = &bytes.Buffer{}
				name := fmt.Sprintf("%s/workers=%d/forced=%v", d.Game, workers, base.ForceExclude != nil)
				assertMatchesReference(t, name, d, cfg)
			}
		}
	}
}

func TestRunMatchesReferenceOnEdgeCases(t *testing.T) {
	d := &trace.Dataset{Game: "edge"}
	for i := 0; i < 240; i++ {
		a, b := uint64(i%4), uint64((i/4)%3)
		// A repeated input name: Record.Input, and so the key, sees only
		// the first value.
		d.Append(&trace.Record{
			EventSeq: int64(i), EventType: "dupin", Instr: 100 + int64(i%7),
			Inputs: []trace.Field{
				fld("state.a", trace.InHistory, 2, a),
				fld("state.b", trace.InHistory, 1, b),
				fld("state.a", trace.InHistory, 8, uint64(i)),
			},
			Outputs: []trace.Field{fld("state.out", trace.OutHistory, 4, a*10+b)},
		})
		// A repeated output name: the train prediction keeps the last
		// value, and validation scores every occurrence.
		d.Append(&trace.Record{
			EventSeq: int64(i), EventType: "dupout", Instr: 50,
			Inputs: []trace.Field{fld("state.a", trace.InHistory, 2, a)},
			Outputs: []trace.Field{
				fld("state.out", trace.OutHistory, 4, a),
				fld("temp.tile", trace.OutTemp, 16, b),
				fld("state.out", trace.OutHistory, 4, a+uint64(i%2)),
			},
		})
		// An input value equal to the absent sentinel, repeated with
		// another value that must not replace it, and records that lack
		// the field altogether.
		in := []trace.Field{fld("state.b", trace.InHistory, 1, b)}
		switch i % 3 {
		case 0:
			in = append(in, fld("state.s", trace.InHistory, 4, 0xdeadbeefcafef00d),
				fld("state.s", trace.InHistory, 4, uint64(i)))
		case 1:
			in = append(in, fld("state.s", trace.InHistory, 4, a))
		}
		d.Append(&trace.Record{
			EventSeq: int64(i), EventType: "sentinel", Instr: 80, Inputs: in,
			Outputs: []trace.Field{fld("state.out", trace.OutExtern, 4, b+uint64(i%3))},
		})
		// A type without inputs: every key is the same.
		d.Append(&trace.Record{
			EventSeq: int64(i), EventType: "noinputs", Instr: 10,
			Outputs: []trace.Field{fld("state.out", trace.OutHistory, 4, uint64(i%2))},
		})
	}
	// A type with a single record cannot be split and must be skipped.
	d.Append(&trace.Record{
		EventSeq: 999, EventType: "single", Instr: 1,
		Inputs:  []trace.Field{fld("state.z", trace.InHistory, 2, 1)},
		Outputs: []trace.Field{fld("state.out", trace.OutHistory, 4, 1)},
	})

	for _, workers := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Log = &bytes.Buffer{}
		assertMatchesReference(t, fmt.Sprintf("edge/workers=%d", workers), d, cfg)
	}
	res, err := Run(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Selection["single"]; ok {
		t.Fatal("single-record type was not skipped")
	}

	// Evaluate a selection naming fields a type never saw, one of them
	// sorting between the type's real fields.
	sel := memo.Selection{
		"dupin":    {{Name: "state.ab"}, {Name: "state.a"}, {Name: "zz.ghost"}},
		"sentinel": {{Name: "state.s"}, {Name: "state.a"}},
		"noinputs": {{Name: "state.a"}},
		"single":   {{Name: "state.z"}},
	}
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		if got, want := Evaluate(d, sel, frac), refEvaluate(d, sel, frac); got != want {
			t.Fatalf("Evaluate(frac=%v) = %+v, reference %+v", frac, got, want)
		}
	}
}

func TestRunIdenticalAcrossWorkers(t *testing.T) {
	for _, d := range gameProfiles(t, 1, 8*units.Second) {
		var want *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
			} else if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: Workers=%d Result differs from Workers=1", d.Game, workers)
			}
		}
	}
}

// This file keeps PFI's original row-wise implementation as a test
// oracle: every record is a *trace.Record, every key reads its fields by
// name through Record.Input, and permutation overrides are per-record
// maps. It is serial and slow on purpose; the columnar implementation in
// pfi.go must reproduce its Result exactly.

type refTypeData struct {
	eventType string
	fields    []fieldMeta
	train     []*trace.Record
	valid     []*trace.Record
}

// refRun mirrors Run with one worker and no Obs registry.
func refRun(d *trace.Dataset, cfg Config) (*Result, error) {
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
	res := &Result{Selection: memo.Selection{}}
	res.InputBytesTotal = d.UnionInputWidth()
	types := refSplitByType(d, cfg.TrainFrac)
	srcs := make([]*rng.Source, len(types))
	for i := range types {
		srcs[i] = r.Split()
	}
	for i, td := range types {
		sel, imps, curve := refSelectForType(td, cfg, srcs[i])
		res.Selection[td.eventType] = sel
		res.Importance = append(res.Importance, imps...)
		res.Curve = append(res.Curve, curve...)
	}
	res.Selection.Canonicalize()
	res.SelectedBytes = res.Selection.TotalWidth()
	res.Final = refEvaluate(d, res.Selection, cfg.TrainFrac)
	return res, nil
}

func refSplitByType(d *trace.Dataset, trainFrac float64) []*refTypeData {
	byType := make(map[string]*refTypeData)
	var order []string
	for _, rec := range d.Records {
		td, ok := byType[rec.EventType]
		if !ok {
			td = &refTypeData{eventType: rec.EventType}
			byType[rec.EventType] = td
			order = append(order, rec.EventType)
		}
		td.train = append(td.train, rec) // temporarily hold all
	}
	var out []*refTypeData
	for _, t := range order {
		td := byType[t]
		all := td.train
		n := int(float64(len(all)) * trainFrac)
		if n < 1 {
			n = 1
		}
		if n >= len(all) {
			n = len(all) - 1
		}
		if n < 1 {
			continue
		}
		td.train, td.valid = all[:n], all[n:]
		td.fields = refFieldUniverse(all)
		out = append(out, td)
	}
	return out
}

func refFieldUniverse(recs []*trace.Record) []fieldMeta {
	seen := make(map[string]*fieldMeta)
	var order []string
	for _, rec := range recs {
		for _, f := range rec.Inputs {
			if m, ok := seen[f.Name]; ok {
				if f.Size > m.size {
					m.size = f.Size
				}
				continue
			}
			seen[f.Name] = &fieldMeta{name: f.Name, category: f.Category, size: f.Size}
			order = append(order, f.Name)
		}
	}
	out := make([]fieldMeta, 0, len(order))
	for _, n := range order {
		out = append(out, *seen[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type refFieldKey struct {
	name string
	hash uint64
}

type refModel struct {
	fields []refFieldKey
	rows   map[uint64][]trace.Field
}

func refTrainModel(recs []*trace.Record, fields []string) *refModel {
	m := &refModel{rows: make(map[uint64][]trace.Field)}
	for _, n := range fields {
		m.fields = append(m.fields, refFieldKey{name: n, hash: trace.HashString(n)})
	}
	for _, rec := range recs {
		k := refKeyOf(rec, m.fields, nil)
		if _, ok := m.rows[k]; !ok {
			m.rows[k] = rec.Outputs
		}
	}
	return m
}

func refKeyOf(rec *trace.Record, fields []refFieldKey, override map[string]uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, fk := range fields {
		v := uint64(0xdeadbeefcafef00d)
		if ov, ok := override[fk.name]; ok {
			v = ov
		} else if f, ok := rec.Input(fk.name); ok {
			v = f.Value
		}
		h = trace.Combine(h, fk.hash)
		h = trace.Combine(h, v)
	}
	return h
}

func refEvalModel(m *refModel, valid []*trace.Record, override map[int]map[string]uint64) evalCounts {
	var c evalCounts
	for i, rec := range valid {
		c.totalInstr += rec.Instr
		var ov map[string]uint64
		if override != nil {
			ov = override[i]
		}
		pred, ok := m.rows[refKeyOf(rec, m.fields, ov)]
		if !ok {
			continue
		}
		c.hitInstr += rec.Instr
		predicted := make(map[string]uint64, len(pred))
		for _, f := range pred {
			predicted[f.Name] = f.Value
		}
		for _, f := range rec.Outputs {
			match := false
			if pv, ok := predicted[f.Name]; ok && pv == f.Value {
				match = true
			}
			if f.Category == trace.OutTemp {
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

func refSelectForType(td *refTypeData, cfg Config, r *rng.Source) ([]memo.SelectedField, []FieldImportance, []TrimPoint) {
	names := make([]string, len(td.fields))
	metaByName := make(map[string]fieldMeta, len(td.fields))
	for i, f := range td.fields {
		names[i] = f.name
		metaByName[f.name] = f
	}
	full := refTrainModel(td.train, names)
	base := refEvalModel(full, td.valid, nil).metrics()

	score := func(m Metrics) float64 { return 10*m.NonTempError + m.TempError }
	fieldSrcs := make([]*rng.Source, len(names))
	for i := range names {
		fieldSrcs[i] = r.Split()
	}
	imps := make([]FieldImportance, len(names))
	for fi, name := range names {
		fr := fieldSrcs[fi]
		var total float64
		for p := 0; p < cfg.Permutations; p++ {
			vals := make([]uint64, len(td.valid))
			for i, rec := range td.valid {
				if f, ok := rec.Input(name); ok {
					vals[i] = f.Value
				} else {
					vals[i] = 0xdeadbeefcafef00d
				}
			}
			fr.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			override := make(map[int]map[string]uint64, len(vals))
			for i, v := range vals {
				override[i] = map[string]uint64{name: v}
			}
			perm := refEvalModel(full, td.valid, override).metrics()
			total += score(perm) - score(base)
		}
		meta := metaByName[name]
		imps[fi] = FieldImportance{
			Name: name, Category: meta.category, Size: meta.size,
			EventType: td.eventType, Importance: total / float64(cfg.Permutations),
		}
	}

	order := append([]FieldImportance(nil), imps...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Importance != order[j].Importance {
			return order[i].Importance < order[j].Importance
		}
		return order[i].Size > order[j].Size
	})

	selected := make(map[string]bool, len(names))
	for _, n := range names {
		selected[n] = true
	}
	var curve []TrimPoint
	widthOf := func() units.Size {
		var w units.Size
		for n := range selected {
			w += metaByName[n].size
		}
		return w
	}
	for _, cand := range order {
		if cfg.ForceInclude[cand.Name] {
			continue
		}
		if !cfg.ForceExclude[cand.Name] && len(selected) == 1 {
			break
		}
		delete(selected, cand.Name)
		subset := make([]string, 0, len(selected))
		for n := range selected {
			subset = append(subset, n)
		}
		sort.Strings(subset)
		m := refEvalModel(refTrainModel(td.train, subset), td.valid, nil).metrics()
		ok := m.NonTempError <= cfg.MaxNonTempError && m.TempError <= cfg.MaxTempError
		if cfg.ForceExclude[cand.Name] {
			ok = true
		}
		curve = append(curve, TrimPoint{
			SelectedBytes: widthOf(), NonTempError: m.NonTempError, TempError: m.TempError,
			Coverage: m.Coverage, DroppedField: cand.Name, DroppedCategory: cand.Category,
			Accepted: ok,
		})
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "pfi[%s]: drop %-28s imp=%.4f -> cov=%5.1f%% errNT=%.3f%% errT=%5.1f%% accepted=%v\n",
				td.eventType, cand.Name, cand.Importance, 100*m.Coverage, 100*m.NonTempError, 100*m.TempError, ok)
		}
		if !ok {
			selected[cand.Name] = true
		}
	}

	out := make([]memo.SelectedField, 0, len(selected))
	for n := range selected {
		meta := metaByName[n]
		out = append(out, memo.SelectedField{Name: n, Category: meta.category, Size: meta.size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, imps, curve
}

func refEvaluate(d *trace.Dataset, sel memo.Selection, trainFrac float64) Metrics {
	var agg evalCounts
	for _, td := range refSplitByType(d, trainFrac) {
		names := make([]string, 0, len(sel[td.eventType]))
		for _, f := range sel[td.eventType] {
			names = append(names, f.Name)
		}
		sort.Strings(names)
		c := refEvalModel(refTrainModel(td.train, names), td.valid, nil)
		agg.totalInstr += c.totalInstr
		agg.hitInstr += c.hitInstr
		agg.predNonTemp += c.predNonTemp
		agg.errNonTemp += c.errNonTemp
		agg.predTemp += c.predTemp
		agg.errTemp += c.errTemp
	}
	return agg.metrics()
}
