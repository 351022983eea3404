// Command perfbench is the repository's benchmark. It drives the SETM
// library, its SQL driver and the setmd service through their public
// entry points, checks every result against a reference mined by a
// different driver, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run) as one JSON line:
//
//	bash perfbench/run.sh --workload mine-retail --seed 1 --seconds 20 --trace 0
//
// Workloads: mine-retail, mine-quest-spill, sql-retail, setmd-mixed.
// See NOTES.md for what each one exercises and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the program's copy of BENCHMARK.json's end_to_end and per_layer
// sections; the self-test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	// Workload-level figures that exist only on some workloads.
	{"error_rate", "ratio"},
	{"hit_ms_p50", "ms"},
	{"cold_ms_p50", "ms"},
	{"refresh_ms_p50", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"recover_s", "s"},
	{"disk_bytes_per_input_byte", "ratio"},
	{"trace.overhead_ms", "ms"},
	// core
	{"core.salesrows_ms", "ms"},
	{"core.init_ms", "ms"},
	{"core.packed_resident_ms", "ms"},
	{"core.packed_spilled_ms", "ms"},
	{"core.generic_ms", "ms"},
	{"core.delta_ms", "ms"},
	{"core.outside_iter_ms", "ms"},
	{"core.rprime_rows", "count"},
	{"core.r_rows", "count"},
	{"core.candidate_yield", "ratio"},
	{"core.ns_per_rprime_row", "ns"},
	{"core.max_k", "count"},
	{"core.sorts_skipped", "count"},
	{"core.self_ms", "ms"},
	// storage
	{"storage.page_reads", "count"},
	{"storage.page_writes", "count"},
	{"storage.hit_ratio", "ratio"},
	{"storage.seq_read_ratio", "ratio"},
	{"storage.runs_spilled", "count"},
	{"storage.spill_bytes", "bytes"},
	{"storage.page_io_per_rprime_row", "ratio"},
	{"storage.pinned_frames_end", "count"},
	// sqlparse and engine
	{"sqlparse.parse_us_per_stmt", "us"},
	{"sqlparse.stmts_per_mine", "count"},
	{"engine.load_ms", "ms"},
	{"engine.extend_ms", "ms"},
	{"engine.count_ms", "ms"},
	{"engine.materialize_ms", "ms"},
	{"engine.select_ms", "ms"},
	{"engine.ddl_ms", "ms"},
	{"engine.self_ms", "ms"},
	// server
	{"server.upload_ms_p50", "ms"},
	{"server.append_ms_p50", "ms"},
	{"server.delete_ms_p50", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.done_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.result_bytes", "bytes"},
	{"server.job_mine_ms_p50", "ms"},
	{"server.job_overhead_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.patch_ratio", "ratio"},
	{"server.jobs_queued", "count"},
	{"server.jobs_rejected", "count"},
	{"server.admission_used_end", "bytes"},
	{"server.pinned_frames_end", "count"},
	{"server.persist_errors", "count"},
	{"server.self_ms", "ms"},
	// wal
	{"wal.bytes_per_write", "bytes"},
	{"wal.append_errors", "count"},
	// runtime
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	// bench: validity of the load generator
	{"bench.lag_ms_p90", "ms"},
	{"bench.inflight_max", "count"},
	{"bench.samples", "count"},
	{"bench.busy_ratio", "ratio"},
	{"bench.cpu_steal_ratio", "ratio"},
	{"bench.self_ms", "ms"},
}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long one run measures
	trace    bool
	out      string // directory for span dumps and setmd data dirs
	size     sizes
}

// report is what a workload hands back: op accounting, every metric
// value by name, the end-of-run invariants that failed, and free-form
// lines describing the input and the workload-only figures.
type report struct {
	attempted, failed int
	values            map[string]float64
	violations        []string
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records an end-of-run invariant.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*config) (*report, error){
	"mine-retail":      runMineRetail,
	"mine-quest-spill": runMineQuestSpill,
	"sql-retail":       runSQLRetail,
	"setmd-mixed":      runSetmdMixed,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: mine-retail, mine-quest-spill, sql-retail, setmd-mixed")
	seed := flag.Int64("seed", 1, "seed for the generated inputs and the request schedule")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps and setmd data directories")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := &config{
		workload: *workload, seed: *seed, trace: *trace == 1, out: *out,
		window: time.Duration(*seconds * float64(time.Second)),
		size:   fullSizes(),
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	for _, v := range rep.violations {
		fmt.Println("# VIOLATION: " + v)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

// finish selects the metrics this mode reports, refusing a report that
// lacks one, and folds failures and invariant violations into correct.
func finish(cfg *config, rep *report) (*resultLine, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := &resultLine{
		Correct:   rep.failed == 0 && len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no value for metric(s) %s", strings.Join(missing, ", "))
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return line, nil
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// method; xs is sorted in place. Zero for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runDir returns a fresh scratch directory under cfg.out for this run.
func runDir(cfg *config, what string) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(cfg.out)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, what+"-")
}
