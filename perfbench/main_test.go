package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// The benchmark's self-test runs every workload at a tiny size. It checks
// that each workload reports every declared metric with its unit, that
// the output checks catch a wrong expectation, and that a second seed
// changes the inputs but not the metric set.

func tinyRun(t *testing.T, workload string, seed uint64, traced, wrong bool) (*run, metaJSON) {
	t.Helper()
	r, meta, err := execute(options{
		workload: workload, seed: seed, seconds: 0.1, trace: traced, tiny: true, wrongCount: wrong,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r, meta
}

func metricNames(res resultJSON) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestDeclaredMetrics pins BENCHMARK.json to the metrics the code emits.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var workloadNames []string
	for _, w := range decl.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	sort.Strings(workloadNames)
	if want := []string{"ingest", "relearn", "serve"}; !reflect.DeepEqual(workloadNames, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", workloadNames, want)
	}
	for _, c := range []struct {
		what string
		got  []metricDef
		decl []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		var want []metricDef
		for _, d := range c.decl {
			want = append(want, metricDef{d.Name, d.Unit, d.Better})
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s: code emits %v, BENCHMARK.json declares %v", c.what, c.got, want)
		}
	}
}

// layerWork lists, per workload, layers whose busy fraction must be
// positive and layers that must do no work: the separation the workloads
// were chosen for.
var layerWork = map[string]struct{ busy, idle []string }{
	"serve":   {busy: []string{"games", "memo", "workload", "events"}, idle: []string{"pfi", "trace", "cloud"}},
	"relearn": {busy: []string{"pfi", "memo", "games", "trace", "cloud"}},
	"ingest":  {busy: []string{"trace", "cloud"}, idle: []string{"pfi", "memo", "games", "workload", "events"}},
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range []string{"serve", "relearn", "ingest"} {
		t.Run(w, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				r, meta := tinyRun(t, w, 1, traced, false)
				res := r.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace=%v: missing %s", traced, d.name)
					case m.Unit != d.unit:
						t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced {
					for _, l := range layerWork[w].busy {
						if v := r.layer[l+".busy_frac"]; v <= 0 {
							t.Errorf("%s.busy_frac = %v, want > 0", l, v)
						}
					}
					for _, l := range layerWork[w].idle {
						if v := r.layer[l+".busy_frac"]; v != 0 {
							t.Errorf("%s.busy_frac = %v, want 0", l, v)
						}
					}
					if c := r.layer["bench.span_coverage_frac"]; c <= 0 || c > 1 {
						t.Errorf("span coverage %v, want (0, 1]", c)
					}
				}
				if meta.Seed != 1 || meta.GoMaxProcs < 1 || meta.NumCPU < 1 || meta.GoVersion == "" || meta.Commit == "" {
					t.Errorf("incomplete metadata: %+v", meta)
				}
			}
		})
	}
}

func TestWrongExpectationIsCounted(t *testing.T) {
	for _, w := range []string{"serve", "relearn", "ingest"} {
		r, _ := tinyRun(t, w, 1, false, true)
		res := r.result()
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected count left correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

func TestSecondSeedChangesInputsNotMetrics(t *testing.T) {
	for _, w := range []string{"serve", "relearn", "ingest"} {
		r1, m1 := tinyRun(t, w, 1, false, false)
		_, m1again := tinyRun(t, w, 1, false, false)
		r2, m2 := tinyRun(t, w, 2, false, false)
		if m1.Inputs != m1again.Inputs || m1.Outcome != m1again.Outcome {
			t.Errorf("%s: seed 1 gave inputs %s and outcome %s, then %s and %s",
				w, m1.Inputs, m1.Outcome, m1again.Inputs, m1again.Outcome)
		}
		if m1.Inputs == m2.Inputs {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs %s", w, m1.Inputs)
		}
		for _, traced := range []bool{false, true} {
			r1.opt.trace, r2.opt.trace = traced, traced
			if a, b := metricNames(r1.result()), metricNames(r2.result()); !reflect.DeepEqual(a, b) {
				t.Errorf("%s trace=%v: seed 1 metrics %v, seed 2 metrics %v", w, traced, a, b)
			}
		}
	}
}
