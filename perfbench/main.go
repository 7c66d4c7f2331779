// Command perfbench is the repository's benchmark for the SNIP loop:
// devices skip redundant events through a compact table (serve), a
// sharded cloud profiler ingests uploaded sessions (ingest), and the
// profiler retrains and ships refreshed tables over the air (relearn).
//
// One invocation runs one workload from a seed, measures it for a fixed
// wall time, checks the program's outputs, and prints one JSON result as
// its last line of standard output:
//
//	perfbench --workload serve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no benchmark tracing. With --trace 1 the same measurement runs first as
// the untraced reference, then a serial traced pass over the same inputs
// calls each layer's exported function inside a span and the result
// carries the per-layer metrics instead. See README.md for the workloads
// and for which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one reported metric, its unit and which direction is
// better; BENCHMARK.json declares the same list.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics every untraced run reports, on every workload.
// Each has a value on every workload and none can be 0; the meaning of
// op_p50_ms is the workload's own closed-loop operation (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"cpu_ms_per_session", "ms", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run reports, on every workload; a
// layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	// Device pipeline: sensor generation → event synthesis → flat lookup
	// → handler or short-circuit → energy ledger.
	{"workload.generate_ms", "ms", "lower"},
	{"workload.busy_frac", "fraction", "lower"},
	{"events.synthesize_ms", "ms", "lower"},
	{"events.count", "count", "higher"},
	{"events.busy_frac", "fraction", "lower"},
	{"memo.lookup_ns", "ns", "lower"},
	{"memo.lookup_p99_ns", "ns", "lower"},
	{"memo.lookups", "count", "higher"},
	{"memo.probes_per_lookup", "count", "lower"},
	{"memo.hit_ratio", "fraction", "higher"},
	{"memo.busy_frac", "fraction", "lower"},
	{"games.process_us", "us", "lower"},
	{"games.process_calls", "count", "lower"},
	{"games.busy_frac", "fraction", "lower"},
	{"energy.ledger_busy_frac", "fraction", "lower"},
	{"energy.saved_frac", "fraction", "higher"},
	// Wire and cloud ingest: batch encode → HTTP → decode → replay.
	{"trace.encode_ms", "ms", "lower"},
	{"trace.decode_ms", "ms", "lower"},
	{"trace.batch_bytes", "B", "lower"},
	{"trace.compress_ratio", "ratio", "higher"},
	{"trace.busy_frac", "fraction", "lower"},
	{"cloud.replay_ms", "ms", "lower"},
	{"cloud.replay_records", "count", "higher"},
	{"cloud.busy_frac", "fraction", "lower"},
	{"cloud.upload_server_ms", "ms", "lower"},
	{"cloud.http_overhead_ms", "ms", "lower"},
	{"cloud.queue_occupancy", "fraction", "lower"},
	{"cloud.shed_frac", "fraction", "lower"},
	{"cloud.upload_p50_ms", "ms", "lower"},
	{"cloud.upload_p90_ms", "ms", "lower"},
	{"cloud.ingest_sessions_per_s", "1/s", "higher"},
	{"cloud.upload_bytes_per_session", "B", "lower"},
	// Rebuild and OTA: PFI → build → flatten → diff → device apply/load
	// → swap.
	{"cloud.rebuild_ms", "ms", "lower"},
	{"cloud.update_ms", "ms", "lower"},
	{"cloud.refresh_p50_ms", "ms", "lower"},
	{"cloud.profile_records", "count", "higher"},
	{"cloud.ota_bytes_per_refresh", "B", "lower"},
	{"pfi.run_ms", "ms", "lower"},
	{"pfi.fields_in", "count", "higher"},
	{"pfi.fields_selected", "count", "lower"},
	{"pfi.busy_frac", "fraction", "lower"},
	{"setup.pfi_frac", "fraction", "lower"},
	{"memo.build_ms", "ms", "lower"},
	{"memo.flatten_ms", "ms", "lower"},
	{"memo.diff_ms", "ms", "lower"},
	{"memo.apply_delta_ms", "ms", "lower"},
	{"memo.load_ms", "ms", "lower"},
	{"memo.swap_us", "us", "lower"},
	{"memo.image_bytes", "B", "lower"},
	{"memo.delta_bytes", "B", "lower"},
	// Go runtime, over the untraced measurement window.
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	// Heap allocated inside each timed call of the traced pass, per call.
	{"workload.generate.alloc_kb", "KB", "lower"},
	{"events.synthesize.alloc_kb", "KB", "lower"},
	{"device.dispatch.alloc_kb", "KB", "lower"},
	{"trace.encode.alloc_kb", "KB", "lower"},
	{"trace.decode.alloc_kb", "KB", "lower"},
	{"cloud.replay.alloc_kb", "KB", "lower"},
	{"pfi.run.alloc_kb", "KB", "lower"},
	{"memo.build.alloc_kb", "KB", "lower"},
	{"memo.flatten.alloc_kb", "KB", "lower"},
	{"memo.diff.alloc_kb", "KB", "lower"},
	{"memo.apply_delta.alloc_kb", "KB", "lower"},
	{"memo.load.alloc_kb", "KB", "lower"},
	// The trace checking itself.
	{"bench.span_coverage_frac", "fraction", "higher"},
	{"bench.trace_overhead_frac", "fraction", "lower"},
	{"bench.failed_frac", "fraction", "lower"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a size the self-test can run in a
	// second or two; the metric set is unchanged. Only the self-test sets
	// it.
	tiny bool
	// wrongCount perturbs one expected count, so the self-test can prove
	// that a failed output check shows up in the failed count. Only the
	// self-test sets it.
	wrongCount bool
	// spansOut, when set, receives the traced pass's spans as JSON.
	spansOut string
}

// run carries one invocation's state: the options, the operation and
// check ledger, and the metrics gathered so far.
type run struct {
	opt       options
	workers   int
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	// inputs fingerprints the generated inputs, so two seeds can be shown
	// to produce different inputs; outcome fingerprints the simulated
	// outcome of the run's first pass, which one seed must repeat exactly.
	inputs, outcome uint64
	// notes are human-readable lines printed before the result.
	notes []string
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records one attempted operation and whether it failed.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		return false
	}
	return true
}

// check records one output check; a failed check counts as a failed
// operation.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// expect perturbs an expected count when the self-test asks for a
// deliberately wrong expectation.
func (r *run) expect(n int64) int64 {
	if r.opt.wrongCount {
		return n + 1
	}
	return n
}

func (r *run) mixInputs(v uint64) { r.inputs = mix(r.inputs ^ v) }

func (r *run) mixOutcome(v uint64) { r.outcome = mix(r.outcome ^ v) }

// mix is the splitmix64 finalizer: a cheap, well-distributed hash step.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// benchWorkers is the load the benchmark puts on the host: at most two
// fleet workers, uploaders and keep-alive connections, fewer on a
// single-CPU host, so results are comparable across machines that have
// at least two CPUs.
func benchWorkers() int {
	return min(2, runtime.NumCPU())
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// metaJSON records what a result was measured on.
type metaJSON struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Inputs     string  `json:"inputs_fingerprint"`
	Outcome    string  `json:"outcome_fingerprint"`
}

// commit returns the VCS revision the binary was built from, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// result assembles the JSON result: the end-to-end metrics untraced, the
// per-layer metrics traced.
func (r *run) result() resultJSON {
	defs, vals := endToEnd, r.e2e
	if r.opt.trace {
		defs, vals = perLayer, r.layer
	}
	out := resultJSON{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricJSON{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

var workloads = map[string]func(*run) error{
	"serve":   runServe,
	"relearn": runRelearn,
	"ingest":  runIngest,
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: serve, relearn or ingest")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "wall seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.spansOut, "spans-out", "", "write the traced pass's spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return o, fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(names, ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds %v: want a positive duration", o.seconds)
	}
	o.trace = traceFlag == 1
	return o, nil
}

// execute runs one workload and returns its state and metadata.
func execute(o options) (*run, metaJSON, error) {
	r := &run{opt: o, workers: benchWorkers(), e2e: map[string]float64{}, layer: map[string]float64{}}
	if err := workloads[o.workload](r); err != nil {
		return nil, metaJSON{}, err
	}
	if r.attempted > 0 {
		r.layer["bench.failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	meta := metaJSON{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workers: r.workers,
		GoVersion: runtime.Version(), Commit: commit(),
		Inputs:  fmt.Sprintf("%016x", r.inputs),
		Outcome: fmt.Sprintf("%016x", r.outcome),
	}
	return r, meta, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r, meta, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# meta %s\n", mb)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	// Every metric the run measured is printed for people; the result
	// line carries only the set the mode reports.
	for _, set := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, r.e2e}, {perLayer, r.layer}} {
		for _, d := range set.defs {
			if v, ok := set.vals[d.name]; ok {
				fmt.Printf("# %-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	res := r.result()
	fmt.Printf("# correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
}
