// Command setm-bench regenerates the paper's evaluation tables and
// figures (the README's "Commands" and "Benchmarks" sections list them):
//
//	setm-bench -exp fig5      # Figure 5: size of R_i per iteration
//	setm-bench -exp fig6      # Figure 6: cardinality of C_i per iteration
//	setm-bench -exp times     # Section 6.2: execution time vs support
//	setm-bench -exp analysis  # Sections 3.2 / 4.3: analytical evaluation
//	setm-bench -exp compare   # SETM vs nested-loop vs AIS vs Apriori
//	setm-bench -exp io        # measured paged I/O vs the 4.3 bound
//	setm-bench -exp model     # live relation sizes vs the analytic model
//	setm-bench -exp partition # partitioned-driver shard scaling
//	setm-bench -exp all
//
// -strategy {auto,mine,parallel,partitioned,paged,sql} mines once with
// the named driver and prints the per-iteration chosen plans — the
// EXPLAIN-style view of the adaptive executor (combine with -membudget).
//
// By default experiments run on the calibrated retail stand-in at full
// published size (46,873 transactions); -txns scales it down.
//
// -json FILE additionally measures the hot-path drivers (packed and
// generic substrates) and writes machine-readable records — name,
// params, ns/op, result rows, allocations — so the performance
// trajectory can be tracked as BENCH_*.json files across PRs. It runs
// with any -exp value, including one that selects no experiment. The
// records include a delta ladder (0.1% / 1% / 10% retail appends,
// incremental MineDelta vs cold re-mine, plus the setmd append→mine
// round trip against a cold derived-version mine).
//
// -check-trajectory GLOB runs no benchmarks: it parses the committed
// BENCH_pr*.json trajectory matched by the glob and fails if the newest
// file's mine/packed (the retail mine) or setmd/cold record regressed
// more than 2x against the previous one — the CI regression gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"setm"
	"setm/internal/core"
	"setm/internal/engine"
	"setm/internal/experiments"
	"setm/internal/gen"
	"setm/internal/server"
	"setm/internal/sqlparse"
	"setm/internal/tuple"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "setm-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("setm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: fig5, fig6, rrows, times, analysis, compare, io, model, partition, or all")
	txns := fs.Int("txns", 46873, "number of retail transactions to generate")
	seed := fs.Int64("seed", 1, "data seed")
	repeats := fs.Int("repeats", 3, "timing repetitions (best-of)")
	compareTxns := fs.Int("compare-txns", 4000, "transactions for the algorithm comparison (nested-loop is slow)")
	jsonPath := fs.String("json", "", "write machine-readable hot-path benchmark records (name, params, ns/op, rows, allocs, per-iteration plans) to this file, for tracking the perf trajectory as BENCH_*.json across PRs")
	memBudget := fs.Int64("membudget", 0, "Options.MemoryBudget in bytes for the io experiment, the -strategy run, and an extra paged/packed JSON record (0 = driver default, -1 = unlimited)")
	strategy := fs.String("strategy", "", "run one driver {auto,mine,parallel,partitioned,paged,sql} on the retail data set and print its per-iteration chosen plans (the EXPLAIN of mining); honours -membudget")
	checkGlob := fs.String("check-trajectory", "", "parse the BENCH_pr*.json files matching this glob and fail if the newest regresses >2x vs the previous on the critical records (no benchmarks are run)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *checkGlob != "" {
		return checkTrajectory(*checkGlob, stdout)
	}

	cfg := gen.DefaultRetail(*seed)
	cfg.NumTransactions = *txns
	want := func(name string) bool { return *exp == "all" || *exp == name }

	var d *core.Dataset
	dataset := func() *core.Dataset {
		if d == nil {
			fmt.Fprintf(stderr, "generating retail data set (%d transactions)...\n", *txns)
			d = gen.Retail(cfg)
			fmt.Fprintf(stderr, "|R_1| = %d rows\n", d.NumSalesRows())
		}
		return d
	}

	if want("analysis") {
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprint(stdout, experiments.AnalysisReport())
	}

	if want("fig5") || want("fig6") || want("rrows") {
		series, err := experiments.IterationProfile(dataset(), experiments.PaperMinSupports)
		if err != nil {
			return err
		}
		if want("fig5") {
			fmt.Fprintln(stdout, strings.Repeat("=", 72))
			fmt.Fprint(stdout, experiments.FormatFig5(series))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.ChartFig5(series))
		}
		if want("rrows") {
			fmt.Fprintln(stdout, strings.Repeat("=", 72))
			fmt.Fprint(stdout, experiments.FormatRRows(series))
		}
		if want("fig6") {
			fmt.Fprintln(stdout, strings.Repeat("=", 72))
			fmt.Fprint(stdout, experiments.FormatFig6(series))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.ChartFig6(series))
		}
	}

	if want("times") {
		rows, err := experiments.ExecTimes(dataset(), experiments.PaperMinSupports, *repeats)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprint(stdout, experiments.FormatExecTimes(rows))
	}

	if want("compare") {
		ccfg := gen.DefaultRetail(*seed)
		ccfg.NumTransactions = *compareTxns
		cd := gen.Retail(ccfg)
		rows, err := experiments.Compare(cd, core.Options{MinSupportFrac: 0.01})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprintf(stdout, "(on %d retail transactions, 1%% support)\n", *compareTxns)
		fmt.Fprint(stdout, experiments.FormatCompare(rows))
	}

	if want("model") {
		rows, err := experiments.ModelVsMeasured(0.02, *seed) // 4,000 txns
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprint(stdout, experiments.FormatModelVsMeasured(rows))
		fmt.Fprintln(stdout, "(live pages hold 16-byte packed rows per 4096-byte page; the model packs (k+1)×4-byte fields into 4,000 usable bytes)")
	}

	if want("io") {
		iocfg := gen.DefaultRetail(*seed)
		iocfg.NumTransactions = *compareTxns
		iod := gen.Retail(iocfg)
		measured, bound, seqDominated, err := experiments.PagedIOCheck(iod, core.Options{MinSupportFrac: 0.01, MemoryBudget: *memBudget})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprintf(stdout, "Paged SETM I/O on %d retail transactions at 1%% support:\n", *compareTxns)
		fmt.Fprintf(stdout, "measured page accesses: %d\n", measured)
		fmt.Fprintf(stdout, "Section 4.3 bound (n·‖R_1‖ + 3·Σ‖R_i‖ from run footprints): %d\n", bound)
		fmt.Fprintf(stdout, "sequential-dominated: %v\n", seqDominated)
	}

	if want("partition") {
		if err := partitionScaling(dataset(), *repeats, stdout); err != nil {
			return err
		}
	}

	if *strategy != "" {
		if err := runStrategy(*strategy, dataset(), *memBudget, stdout); err != nil {
			return err
		}
	}

	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, dataset(), *seed, *repeats, *memBudget, stdout); err != nil {
			return err
		}
	}

	return nil
}

// minerFor resolves a -strategy name to a driver.
func minerFor(name string) (func(*core.Dataset, core.Options) (*core.Result, error), error) {
	switch name {
	case "auto":
		return core.MineAuto, nil
	case "mine":
		return core.MineMemory, nil
	case "parallel":
		return func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineParallel(d, o, 0)
		}, nil
	case "partitioned":
		return func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MinePartitioned(d, o, 0)
		}, nil
	case "paged":
		return func(d *core.Dataset, o core.Options) (*core.Result, error) {
			r, err := core.MinePaged(d, o, core.PagedConfig{})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}, nil
	case "sql":
		return func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineSQL(d, o, core.SQLConfig{})
		}, nil
	default:
		return nil, fmt.Errorf("unknown -strategy %q (want auto, mine, parallel, partitioned, paged, or sql)", name)
	}
}

// runStrategy mines once with the named driver and prints the
// per-iteration chosen plans — the EXPLAIN-style view of the executor.
func runStrategy(name string, d *core.Dataset, memBudget int64, stdout io.Writer) error {
	mine, err := minerFor(name)
	if err != nil {
		return err
	}
	opts := core.Options{MinSupportFrac: 0.001, MemoryBudget: memBudget}
	res, err := mine(d, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, strings.Repeat("=", 72))
	fmt.Fprintf(stdout, "Strategy %s on %d transactions @ 0.1%% (budget=%d): %v, %d patterns\n",
		name, d.NumTransactions(), memBudget, res.Elapsed, res.TotalPatterns())
	fmt.Fprintf(stdout, "%4s  %-24s %10s %10s %8s %6s %8s %12s\n",
		"k", "plan", "|R'_k|", "|R_k|", "|C_k|", "runs", "pageIO", "duration")
	for _, st := range res.Stats {
		plan := st.Plan.String()
		if plan == "" {
			plan = "-"
		}
		fmt.Fprintf(stdout, "%4d  %-24s %10d %10d %8d %6d %8d %12v\n",
			st.K, plan, st.RPrimeRows, st.RRows, st.CCount, st.RunsSpilled, st.PageIO, st.Duration)
	}
	return nil
}

// benchRecord is one machine-readable benchmark measurement; files of
// these (BENCH_*.json) track the performance trajectory across PRs.
type benchRecord struct {
	Name   string `json:"name"`
	Params string `json:"params"`
	// CPUs and Workers pin the parallelism the measurement ran at
	// (GOMAXPROCS at record time; the explicit worker option, 0 = driver
	// default). The trajectory gate only compares like-for-like: a record
	// taken at different parallelism is skipped, not diffed. Legacy files
	// without the fields (zero values) stay comparable.
	CPUs    int   `json:"cpus,omitempty"`
	Workers int   `json:"workers,omitempty"`
	NsPerOp int64 `json:"ns_per_op"`
	Rows    int64 `json:"rows"`
	Allocs  int64 `json:"allocs"`
	// Spill accounting of the best run (out-of-core drivers only).
	RunsSpilled int64 `json:"runs_spilled,omitempty"`
	SpillBytes  int64 `json:"spill_bytes,omitempty"`
	PageIO      int64 `json:"page_io,omitempty"`
	// Iterations records the per-iteration chosen plan of the best run —
	// why each pass ran the way it did.
	Iterations []iterRecord `json:"iterations,omitempty"`
}

// iterRecord is one iteration of a benchmark run: the executor's chosen
// plan and the observed cardinalities it acted on.
type iterRecord struct {
	K           int    `json:"k"`
	Plan        string `json:"plan,omitempty"`
	RPrimeRows  int64  `json:"r_prime_rows"`
	RRows       int64  `json:"r_rows"`
	CCount      int    `json:"c_count"`
	RunsSpilled int64  `json:"runs_spilled,omitempty"`
	PageIO      int64  `json:"page_io,omitempty"`
}

// writeBenchJSON measures the hot-path drivers (packed and generic
// substrates) on the retail data set at the heaviest published support
// and writes the records as a JSON array, including the paged driver
// across a memory-budget ladder (unlimited / 16 MB / 1 MB / default) so
// the constrained-memory trajectory is tracked alongside the in-RAM one.
// Timing is best-of-repeats; allocation counts come from the run with
// the best time.
func writeBenchJSON(path string, d *core.Dataset, seed int64, repeats int, memBudget int64, stdout io.Writer) error {
	if repeats < 1 {
		repeats = 1
	}
	base := core.Options{MinSupportFrac: 0.001}
	generic := base
	generic.DisablePackedKernels = true
	pagedAt := func(budget int64) func(*core.Dataset, core.Options) (*core.Result, error) {
		return func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.MemoryBudget = budget
			res, err := core.MinePaged(d, o, core.PagedConfig{})
			if err != nil {
				return nil, err
			}
			return res.Result, nil
		}
	}
	autoAt := func(budget int64) func(*core.Dataset, core.Options) (*core.Result, error) {
		return func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.MemoryBudget = budget
			return core.MineAuto(d, o)
		}
	}
	sqlAt := func(workers int) func(*core.Dataset, core.Options) (*core.Result, error) {
		return func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.MaxWorkers = workers
			return core.MineSQL(d, o, core.SQLConfig{})
		}
	}
	variants := []struct {
		name    string
		opts    core.Options
		workers int
		mine    func(*core.Dataset, core.Options) (*core.Result, error)
	}{
		{"mine/packed", base, 0, core.MineMemory},
		{"mine/generic", generic, 0, core.MineMemory},
		{"parallel/packed", base, 0, func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineParallel(d, o, 0)
		}},
		{"partitioned/packed", base, 0, func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MinePartitioned(d, o, 0)
		}},
		{"sql/vectorized", base, 0, sqlAt(0)},
		// The intra-query parallelism ladder for the SQL executor: the
		// same mine forced to 1, 2, and 4 workers, so the exchange
		// substrate's scaling (or its cost on a small box) is tracked.
		{"sql/parallel-1", base, 1, sqlAt(1)},
		{"sql/parallel-2", base, 2, sqlAt(2)},
		{"sql/parallel-4", base, 4, sqlAt(4)},
		// The 1 MB rung is also the driver default (256 pool frames x
		// 4 KB pages), so no separate default record is needed.
		{"paged/packed-unlimited", base, 0, pagedAt(-1)},
		{"paged/packed-16MB", base, 0, pagedAt(16 << 20)},
		{"paged/packed-1MB", base, 0, pagedAt(1 << 20)},
		{"paged/generic", generic, 0, pagedAt(0)},
		// The auto-vs-fixed ladder: the adaptive executor at the same
		// budgets as the fixed paged driver, so the planner's wins (and
		// its per-iteration plans, recorded below) are tracked per PR.
		{"auto/unlimited", base, 0, core.MineAuto},
		{"auto/16MB", base, 0, autoAt(16 << 20)},
		{"auto/1MB", base, 0, autoAt(1 << 20)},
	}
	if memBudget != 0 {
		variants = append(variants, struct {
			name    string
			opts    core.Options
			workers int
			mine    func(*core.Dataset, core.Options) (*core.Result, error)
		}{fmt.Sprintf("paged/packed-membudget=%d", memBudget), base, 0, pagedAt(memBudget)})
	}
	params := fmt.Sprintf("txns=%d minsup=0.1%%", d.NumTransactions())
	recs := make([]benchRecord, 0, len(variants))
	for _, v := range variants {
		rec := benchRecord{Name: v.name, Params: params, Workers: v.workers}
		var ms0, ms1 runtime.MemStats
		for r := 0; r < repeats; r++ {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := v.mine(d, v.opts)
			ns := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return fmt.Errorf("bench %s: %w", v.name, err)
			}
			if rec.NsPerOp == 0 || ns < rec.NsPerOp {
				rec.NsPerOp = ns
				rec.Rows = int64(res.TotalPatterns())
				rec.Allocs = int64(ms1.Mallocs - ms0.Mallocs)
				rec.RunsSpilled, rec.SpillBytes, rec.PageIO = 0, 0, 0
				rec.Iterations = rec.Iterations[:0]
				for _, st := range res.Stats {
					rec.RunsSpilled += st.RunsSpilled
					rec.SpillBytes += st.SpillBytes
					rec.PageIO += st.PageIO
					rec.Iterations = append(rec.Iterations, iterRecord{
						K: st.K, Plan: st.Plan.String(),
						RPrimeRows: st.RPrimeRows, RRows: st.RRows, CCount: st.CCount,
						RunsSpilled: st.RunsSpilled, PageIO: st.PageIO,
					})
				}
			}
		}
		recs = append(recs, rec)
	}
	srecs, err := serverBenchRecords(d, repeats, params)
	if err != nil {
		return fmt.Errorf("bench setmd: %w", err)
	}
	recs = append(recs, srecs...)
	drecs, err := deltaBenchRecords(d, seed, repeats)
	if err != nil {
		return fmt.Errorf("bench delta: %w", err)
	}
	recs = append(recs, drecs...)
	frecs, err := frontendBenchRecords(d, repeats, params)
	if err != nil {
		return fmt.Errorf("bench frontend: %w", err)
	}
	recs = append(recs, frecs...)
	for i := range recs {
		recs[i].CPUs = runtime.GOMAXPROCS(0)
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmark records to %s\n", len(recs), path)
	return nil
}

// figure4Statements is the paper's Figure-4 statement set as MineSQL
// issues it (k=2 shown): the C_1 count query, the R'_k extension join,
// the C_k count+filter, the R_k materialization, and the surrounding
// DDL. It mirrors the FuzzParseDiff seed corpus — the workload the
// zero-allocation front end is tuned for.
var figure4Statements = []string{
	`SELECT s.item, COUNT(*) FROM sales s GROUP BY s.item HAVING COUNT(*) >= :minsupport`,
	`CREATE TABLE rp2 (trans_id INT, item1 INT, item2 INT)`,
	`INSERT INTO rp2
	 SELECT p.trans_id, p.item1, q.item
	 FROM r1 p, sales q
	 WHERE q.trans_id = p.trans_id AND q.item > p.item1
	 ORDER BY p.trans_id, p.item1, q.item`,
	`CREATE TABLE c2 (item1 INT, item2 INT, cnt INT)`,
	`INSERT INTO c2
	 SELECT p.item1, p.item2, COUNT(*)
	 FROM rp2 p
	 GROUP BY p.item1, p.item2
	 HAVING COUNT(*) >= :minsupport`,
	`CREATE TABLE r2 (trans_id INT, item1 INT, item2 INT)`,
	`INSERT INTO r2
	 SELECT p.trans_id, p.item1, p.item2
	 FROM rp2 p, c2 c
	 WHERE p.item1 = c.item1 AND p.item2 = c.item2
	 ORDER BY p.trans_id, p.item1, p.item2`,
	`SELECT item1, item2, cnt FROM c2 ORDER BY item1, item2`,
	`DROP TABLE IF EXISTS rp2`,
}

// frontendBenchRecords measures the SQL front end in isolation.
// "parse/figure4" is one pooled-parser pass over the Figure-4 statement
// set (ns/op is per full pass; allocations are zero in steady state).
// "sql/prepared" is the paper's C_1 count query executed through a
// prepared statement against the loaded sales table: the plan compiles
// once, so every measured execution is an AST-cache and plan-cache hit.
func frontendBenchRecords(d *core.Dataset, repeats int, params string) ([]benchRecord, error) {
	p := sqlparse.AcquireParser()
	defer sqlparse.ReleaseParser(p)
	parseSet := func() error {
		for _, q := range figure4Statements {
			p.Reset(q)
			if _, err := p.ParseStatement(); err != nil {
				return fmt.Errorf("parse %q: %w", q, err)
			}
		}
		return nil
	}
	if err := parseSet(); err != nil { // warm the token slab and arena
		return nil, err
	}
	parse := benchRecord{
		Name:   "parse/figure4",
		Params: fmt.Sprintf("stmts=%d", len(figure4Statements)),
		Rows:   int64(len(figure4Statements)),
	}
	const passes = 2000
	var ms0, ms1 runtime.MemStats
	for r := 0; r < repeats; r++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < passes; i++ {
			if err := parseSet(); err != nil {
				return nil, err
			}
		}
		ns := time.Since(start).Nanoseconds() / passes
		runtime.ReadMemStats(&ms1)
		if parse.NsPerOp == 0 || ns < parse.NsPerOp {
			parse.NsPerOp = ns
			parse.Allocs = int64(ms1.Mallocs-ms0.Mallocs) / passes
		}
	}

	db := engine.New()
	rows := make([]tuple.Tuple, 0, d.NumSalesRows())
	for _, r := range d.SalesRows() {
		rows = append(rows, tuple.Ints(r[0], r[1]))
	}
	if err := db.LoadTable("sales", tuple.IntSchema("trans_id", "item"), rows); err != nil {
		return nil, err
	}
	st, err := db.Prepare(figure4Statements[0])
	if err != nil {
		return nil, err
	}
	minsup := int64(float64(d.NumTransactions())*0.001 + 0.5)
	if minsup < 1 {
		minsup = 1
	}
	bind := map[string]int64{"minsupport": minsup}
	if _, err := st.Exec(bind); err != nil { // warm the plan cache
		return nil, err
	}
	prep := benchRecord{Name: "sql/prepared", Params: params}
	for r := 0; r < repeats; r++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := st.Exec(bind)
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		if prep.NsPerOp == 0 || ns < prep.NsPerOp {
			prep.NsPerOp = ns
			prep.Rows = int64(len(res.Rows))
			prep.Allocs = int64(ms1.Mallocs - ms0.Mallocs)
		}
	}
	return []benchRecord{parse, prep}, nil
}

// serverBenchRecords measures the setmd service path end to end over
// HTTP: "setmd/cold" is a first submission (admission + mining +
// result fetch), "setmd/cache-hit" a repeat of the same query served
// from the result cache without re-mining. Cold runs get a fresh
// server per repeat so every measurement actually mines; cache-hit
// repeats share one primed server. Both are request-to-result
// wall-clock, best-of-repeats.
func serverBenchRecords(d *core.Dataset, repeats int, params string) ([]benchRecord, error) {
	var sales bytes.Buffer
	if err := setm.WriteDataset(&sales, d); err != nil {
		return nil, err
	}
	cold := benchRecord{Name: "setmd/cold", Params: params}
	for r := 0; r < repeats; r++ {
		c, closeSrv, err := newBenchClient(sales.Bytes())
		if err != nil {
			return nil, err
		}
		ns, rows, iters, err := c.mineOnce()
		closeSrv()
		if err != nil {
			return nil, err
		}
		if cold.NsPerOp == 0 || ns < cold.NsPerOp {
			cold.NsPerOp, cold.Rows, cold.Iterations = ns, rows, iters
		}
	}
	hit := benchRecord{Name: "setmd/cache-hit", Params: params}
	c, closeSrv, err := newBenchClient(sales.Bytes())
	if err != nil {
		return nil, err
	}
	defer closeSrv()
	if _, _, _, err := c.mineOnce(); err != nil { // prime the cache
		return nil, err
	}
	for r := 0; r < repeats; r++ {
		ns, rows, iters, err := c.mineOnce()
		if err != nil {
			return nil, err
		}
		if hit.NsPerOp == 0 || ns < hit.NsPerOp {
			hit.NsPerOp, hit.Rows, hit.Iterations = ns, rows, iters
		}
	}
	return []benchRecord{cold, hit}, nil
}

// iterRecords converts a result's per-iteration stats into the JSON
// record form.
func iterRecords(res *core.Result) []iterRecord {
	iters := make([]iterRecord, 0, len(res.Stats))
	for _, st := range res.Stats {
		iters = append(iters, iterRecord{
			K: st.K, Plan: st.Plan.String(),
			RPrimeRows: st.RPrimeRows, RRows: st.RRows, CCount: st.CCount,
			RunsSpilled: st.RunsSpilled, PageIO: st.PageIO,
		})
	}
	return iters
}

// deltaBenchRecords measures the incremental-refresh ladder: appends of
// 0.1% / 1% / 10% of the retail set, each mined both incrementally
// (MineDelta against the base's border snapshot) and cold (full MineAuto
// over base+delta), plus the setmd service round trip at the 1% rung —
// "setmd/delta-refresh" is append → mine with the parent's border warm
// in the result cache (the invalidate-and-patch path), "setmd/delta-cold"
// the same derived version mined with the parent never mined. The
// generator's prefix stability supplies the deltas: a run grown by N
// transactions reproduces the base exactly and then continues it.
func deltaBenchRecords(d *core.Dataset, seed int64, repeats int) ([]benchRecord, error) {
	if repeats < 1 {
		repeats = 1
	}
	baseN := d.NumTransactions()
	maxDelta := int(float64(baseN)*0.10 + 0.5)
	if maxDelta < 1 {
		maxDelta = 1
	}
	cfg := gen.DefaultRetail(seed)
	cfg.NumTransactions = baseN + maxDelta
	grown := gen.Retail(cfg)

	opts := core.Options{MinSupportFrac: 0.001}
	ropts := opts
	ropts.RetainBorder = true
	baseRes, err := core.MineAuto(d, ropts)
	if err != nil {
		return nil, err
	}
	if baseRes.Border == nil {
		return nil, fmt.Errorf("RetainBorder produced no snapshot")
	}

	var recs []benchRecord
	ladder := []struct {
		label string
		frac  float64
	}{{"0.1pct", 0.001}, {"1pct", 0.01}, {"10pct", 0.10}}
	for _, rung := range ladder {
		n := int(float64(baseN)*rung.frac + 0.5)
		if n < 1 {
			n = 1
		}
		delta := &core.Dataset{Transactions: grown.Transactions[baseN : baseN+n]}
		combined := &core.Dataset{Transactions: grown.Transactions[:baseN+n]}
		params := fmt.Sprintf("txns=%d minsup=0.1%% delta=%d", baseN, n)
		incr := benchRecord{Name: "delta/incr-" + rung.label, Params: params}
		for r := 0; r < repeats; r++ {
			start := time.Now()
			res, err := core.MineDelta(context.Background(), d, delta, baseRes.Border, opts)
			ns := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", incr.Name, err)
			}
			if incr.NsPerOp == 0 || ns < incr.NsPerOp {
				incr.NsPerOp, incr.Rows = ns, int64(res.TotalPatterns())
				incr.Iterations = iterRecords(res)
			}
		}
		cold := benchRecord{Name: "delta/cold-" + rung.label, Params: params}
		for r := 0; r < repeats; r++ {
			start := time.Now()
			res, err := core.MineAuto(combined, opts)
			ns := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cold.Name, err)
			}
			if cold.NsPerOp == 0 || ns < cold.NsPerOp {
				cold.NsPerOp, cold.Rows = ns, int64(res.TotalPatterns())
				cold.Iterations = iterRecords(res)
			}
		}
		if incr.Rows != cold.Rows {
			return nil, fmt.Errorf("delta %s: incremental found %d patterns, cold %d", rung.label, incr.Rows, cold.Rows)
		}
		recs = append(recs, incr, cold)
	}

	// Service round trip at the pinned 1% rung.
	n := int(float64(baseN)*0.01 + 0.5)
	if n < 1 {
		n = 1
	}
	var baseSales, deltaSales bytes.Buffer
	if err := setm.WriteDataset(&baseSales, d); err != nil {
		return nil, err
	}
	deltaDS := &core.Dataset{Transactions: grown.Transactions[baseN : baseN+n]}
	if err := setm.WriteDataset(&deltaSales, deltaDS); err != nil {
		return nil, err
	}
	params := fmt.Sprintf("txns=%d minsup=0.1%% delta=%d", baseN, n)
	refresh := benchRecord{Name: "setmd/delta-refresh", Params: params}
	for r := 0; r < repeats; r++ {
		c, closeSrv, err := newBenchClient(baseSales.Bytes())
		if err != nil {
			return nil, err
		}
		if _, _, _, err := c.mineOnce(); err != nil { // warm the parent's border
			closeSrv()
			return nil, err
		}
		start := time.Now()
		derived, err := c.append(deltaSales.Bytes())
		if err != nil {
			closeSrv()
			return nil, err
		}
		_, rows, iters, err := c.mineVersion(derived)
		ns := time.Since(start).Nanoseconds()
		closeSrv()
		if err != nil {
			return nil, err
		}
		if refresh.NsPerOp == 0 || ns < refresh.NsPerOp {
			refresh.NsPerOp, refresh.Rows, refresh.Iterations = ns, rows, iters
		}
	}
	coldSrv := benchRecord{Name: "setmd/delta-cold", Params: params}
	for r := 0; r < repeats; r++ {
		c, closeSrv, err := newBenchClient(baseSales.Bytes())
		if err != nil {
			return nil, err
		}
		derived, err := c.append(deltaSales.Bytes()) // parent never mined: no border to patch
		if err != nil {
			closeSrv()
			return nil, err
		}
		ns, rows, iters, err := c.mineVersion(derived)
		closeSrv()
		if err != nil {
			return nil, err
		}
		if coldSrv.NsPerOp == 0 || ns < coldSrv.NsPerOp {
			coldSrv.NsPerOp, coldSrv.Rows, coldSrv.Iterations = ns, rows, iters
		}
	}
	return append(recs, refresh, coldSrv), nil
}

// checkTrajectory is the CI bench-regression gate: it compares the two
// newest committed BENCH_pr*.json files on the critical records —
// mine/packed (the retail in-memory mine) and setmd/cold (the service
// request-to-result path) — and fails if the newer file regressed more
// than 2x. Other records are informational; absolute times vary across
// machines, so only the within-trajectory ratio is enforced.
func checkTrajectory(glob string, stdout io.Writer) error {
	files, err := filepath.Glob(glob)
	if err != nil {
		return err
	}
	re := regexp.MustCompile(`BENCH_pr(\d+)\.json$`)
	type entry struct {
		pr   int
		path string
	}
	var entries []entry
	for _, f := range files {
		m := re.FindStringSubmatch(f)
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		entries = append(entries, entry{pr, f})
	}
	if len(entries) < 2 {
		fmt.Fprintf(stdout, "check-trajectory: %d BENCH_pr*.json files match %q; nothing to compare\n", len(entries), glob)
		return nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pr < entries[j].pr })
	prev, cur := entries[len(entries)-2], entries[len(entries)-1]
	load := func(path string) (map[string]benchRecord, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var recs []benchRecord
		if err := json.Unmarshal(raw, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m := make(map[string]benchRecord, len(recs))
		for _, r := range recs {
			m[r.Name] = r
		}
		return m, nil
	}
	baseline, err := load(prev.path)
	if err != nil {
		return err
	}
	current, err := load(cur.path)
	if err != nil {
		return err
	}
	const maxRatio = 2.0
	critical := []string{"mine/packed", "setmd/cold"}
	var failures []string
	fmt.Fprintf(stdout, "bench trajectory: %s -> %s\n", prev.path, cur.path)
	for _, name := range critical {
		b, okB := baseline[name]
		c, okC := current[name]
		if !okB || !okC || b.NsPerOp <= 0 {
			fmt.Fprintf(stdout, "  %-14s absent from one file; skipped\n", name)
			continue
		}
		// Like-for-like only: a run at different parallelism is not a
		// regression signal. Zero (legacy files predating the fields, or
		// driver-default workers) compares with anything.
		if (b.CPUs != 0 && c.CPUs != 0 && b.CPUs != c.CPUs) ||
			(b.Workers != 0 && c.Workers != 0 && b.Workers != c.Workers) {
			fmt.Fprintf(stdout, "  %-14s parallelism differs (cpus %d->%d, workers %d->%d); skipped\n",
				name, b.CPUs, c.CPUs, b.Workers, c.Workers)
			continue
		}
		ratio := float64(c.NsPerOp) / float64(b.NsPerOp)
		fmt.Fprintf(stdout, "  %-14s %12v -> %12v  (%.2fx)\n",
			name, time.Duration(b.NsPerOp), time.Duration(c.NsPerOp), ratio)
		if ratio > maxRatio {
			failures = append(failures, fmt.Sprintf("%s regressed %.2fx (limit %.1fx)", name, ratio, maxRatio))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression: %s", strings.Join(failures, "; "))
	}
	fmt.Fprintln(stdout, "bench trajectory OK")
	return nil
}

// benchClient drives one setmd instance over real HTTP.
type benchClient struct {
	base    string
	version string
}

func newBenchClient(sales []byte) (*benchClient, func(), error) {
	ts := httptest.NewServer(server.New(server.Config{}))
	resp, err := http.Post(ts.URL+"/datasets", "text/plain", bytes.NewReader(sales))
	if err != nil {
		ts.Close()
		return nil, nil, err
	}
	var ds struct {
		Version string `json:"version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if err != nil {
		ts.Close()
		return nil, nil, err
	}
	return &benchClient{base: ts.URL, version: ds.Version}, ts.Close, nil
}

// append POSTs a delta against the client's base dataset and returns
// the derived version id.
func (c *benchClient) append(delta []byte) (string, error) {
	resp, err := http.Post(c.base+"/datasets/"+c.version+"/append", "text/plain", bytes.NewReader(delta))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("append: %s: %s", resp.Status, raw)
	}
	var ds struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		return "", err
	}
	return ds.Version, nil
}

// mineOnce submits the benchmark query against the uploaded base
// version; mineVersion does the same for any registered version.
func (c *benchClient) mineOnce() (int64, int64, []iterRecord, error) {
	return c.mineVersion(c.version)
}

// mineVersion submits the benchmark query, waits for completion,
// fetches the result, and returns (round-trip ns, pattern rows, the
// service's per-iteration plan rows).
func (c *benchClient) mineVersion(version string) (int64, int64, []iterRecord, error) {
	body := fmt.Sprintf(`{"dataset":%q,"minsup":0.001}`, version)
	start := time.Now()
	resp, err := http.Post(c.base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	var st struct {
		ID         string `json:"id"`
		State      string `json:"state"`
		Error      string `json:"error"`
		Iterations []struct {
			K           int    `json:"k"`
			Plan        string `json:"plan"`
			RPrimeRows  int64  `json:"r_prime_rows"`
			RRows       int64  `json:"r_rows"`
			Patterns    int    `json:"patterns"`
			RunsSpilled int64  `json:"runs_spilled"`
			PageIO      int64  `json:"page_io"`
		} `json:"iterations"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return 0, 0, nil, err
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			return 0, 0, nil, fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		resp, err = http.Get(c.base + "/jobs/" + st.ID + "?wait=1")
		if err != nil {
			return 0, 0, nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, 0, nil, err
		}
	}
	resp, err = http.Get(c.base + "/jobs/" + st.ID + "/result")
	if err != nil {
		return 0, 0, nil, err
	}
	var res core.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		return 0, 0, nil, err
	}
	iters := make([]iterRecord, 0, len(st.Iterations))
	for _, it := range st.Iterations {
		iters = append(iters, iterRecord{
			K: it.K, Plan: it.Plan, RPrimeRows: it.RPrimeRows, RRows: it.RRows,
			CCount: it.Patterns, RunsSpilled: it.RunsSpilled, PageIO: it.PageIO,
		})
	}
	return time.Since(start).Nanoseconds(), int64(res.TotalPatterns()), iters, nil
}

// partitionScaling times MinePartitioned across shard counts on the
// retail data set at the heaviest published support (0.1%), checking that
// every shard count finds the identical pattern set.
func partitionScaling(d *core.Dataset, repeats int, stdout io.Writer) error {
	opts := core.Options{MinSupportFrac: 0.001}
	fmt.Fprintln(stdout, strings.Repeat("=", 72))
	fmt.Fprintf(stdout, "Partitioned SETM shard scaling (%d transactions, 0.1%% support):\n", d.NumTransactions())
	fmt.Fprintf(stdout, "%8s  %12s  %10s\n", "shards", "best-of-time", "patterns")
	wantPatterns := -1
	for _, shards := range []int{1, 2, 4, 8} {
		var best time.Duration
		patterns := 0
		for r := 0; r < repeats; r++ {
			res, err := core.MinePartitioned(d, opts, shards)
			if err != nil {
				return err
			}
			patterns = res.TotalPatterns()
			if best == 0 || res.Elapsed < best {
				best = res.Elapsed
			}
		}
		if wantPatterns == -1 {
			wantPatterns = patterns
		} else if patterns != wantPatterns {
			return fmt.Errorf("shards=%d found %d patterns, want %d", shards, patterns, wantPatterns)
		}
		fmt.Fprintf(stdout, "%8d  %12v  %10d\n", shards, best, patterns)
	}
	return nil
}
