package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"setm/internal/core"
	"setm/internal/sqlparse"
	"setm/internal/storage"
)

// poolFrames is the buffer-pool size MineAuto gives itself when the
// caller passes none (the paged driver's default of 256 4 KB frames);
// the traced run passes a pool of the same size so it can read the
// pool's counters.
const poolFrames = 256

// packedRowBytes is the size of one packed relation row (key + trans_id),
// the unit in which the executor's budget is spent.
const packedRowBytes = 16

// window is one measured stretch of ops.
type window struct {
	lat               []float64 // per-op latency, ms
	attempted, failed int
	elapsed           time.Duration
	firstErr          error

	allocBytes, gcCycles, gcPauseNs uint64
	lagMs                           []float64 // open loop only: send time minus due time
	inflightMax                     int
	busy                            time.Duration // time with at least one op in service
	peakRSSMB                       float64
	stealRatio                      float64
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// fill sets the metrics every workload reports from an untraced window.
func (w *window) fill(rep *report) {
	ops := float64(w.attempted)
	rep.set("latency_ms_p50", percentile(append([]float64(nil), w.lat...), 0.50))
	rep.set("latency_ms_p90", percentile(append([]float64(nil), w.lat...), 0.90))
	rep.set("ops_per_s", float64(w.attempted-w.failed)/w.elapsed.Seconds())
	rep.set("peak_rss_mb", w.peakRSSMB)
	rep.set("error_rate", ratio(float64(w.failed), ops))
	rep.set("runtime.alloc_bytes_per_op", ratio(float64(w.allocBytes), ops))
	rep.set("runtime.gc_cycles_per_op", ratio(float64(w.gcCycles), ops))
	rep.set("runtime.gc_pause_ms_per_op", ratio(float64(w.gcPauseNs), ops)/1e6)
	rep.set("bench.lag_ms_p90", percentile(append([]float64(nil), w.lagMs...), 0.90))
	rep.set("bench.inflight_max", float64(w.inflightMax))
	rep.set("bench.samples", ops)
	rep.set("bench.busy_ratio", w.busy.Seconds()/w.elapsed.Seconds())
	rep.set("bench.cpu_steal_ratio", w.stealRatio)
	w.tally(rep, "untraced")
}

// tally adds the window's ops and failures to the report.
func (w *window) tally(rep *report, label string) {
	rep.attempted += w.attempted
	rep.failed += w.failed
	if w.firstErr != nil {
		rep.notef("first %s failure: %v", label, w.firstErr)
	}
}

// mineFunc runs one op: the call into the program on d, a fresh Dataset
// over the workload's input. tr and acc are nil in untraced windows.
type mineFunc func(d *core.Dataset, opts core.Options, tr *tracer, op int, acc *layerAcc) (*core.Result, error)

// libWorkload is a closed-loop, one-client workload over the library.
type libWorkload struct {
	input func(cfg *config) *core.Dataset
	opts  core.Options
	mine  mineFunc
}

func runMineRetail(cfg *config) (*report, error) {
	return runLibrary(cfg, libWorkload{
		input: func(cfg *config) *core.Dataset {
			return retailInput(cfg.size, cfg.size.retail.NumTransactions, cfg.seed)
		},
		opts: core.Options{MinSupportFrac: cfg.size.retailMinsup},
		mine: mineAuto,
	})
}

func runMineQuestSpill(cfg *config) (*report, error) {
	return runLibrary(cfg, libWorkload{
		input: func(cfg *config) *core.Dataset { return questInput(cfg.size, cfg.seed) },
		opts:  core.Options{MinSupportFrac: cfg.size.questMinsup, MemoryBudget: cfg.size.questBudget},
		mine:  mineAuto,
	})
}

func runSQLRetail(cfg *config) (*report, error) {
	return runLibrary(cfg, libWorkload{
		input: func(cfg *config) *core.Dataset {
			return retailInput(cfg.size, cfg.size.retail.NumTransactions, cfg.seed)
		},
		opts: core.Options{MinSupportFrac: cfg.size.retailMinsup},
		mine: mineSQL,
	})
}

// runLibrary sets up (several times; setup_s is the median), then
// measures: the whole window untraced, or — traced — the first half
// untraced and the second half traced, so the tracing overhead is the
// difference of the two halves' median latency.
func runLibrary(cfg *config, w libWorkload) (*report, error) {
	rep := newReport()
	var in *core.Dataset
	var ref [32]byte
	var last *core.Result
	var setupS []float64
	for i := 0; i < cfg.size.setups; i++ {
		t0 := time.Now()
		in = w.input(cfg)
		refRes, err := core.MineMemory(fresh(in), w.opts)
		if err != nil {
			return nil, fmt.Errorf("reference mine: %w", err)
		}
		ref = digest(refRes.Counts)
		for j := 0; j < cfg.size.warmups; j++ {
			last, err = w.mine(fresh(in), w.opts, nil, 0, nil)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if digest(last.Counts) != ref {
				return nil, fmt.Errorf("warm-up result differs from the MineMemory reference")
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setupS))
	noteShape(rep, in, last, w.opts)

	measure := func(d time.Duration, tr *tracer, acc *layerAcc) *window {
		win := &window{inflightMax: 1}
		m := startMeter()
		start := time.Now()
		for op := 1; time.Since(start) < d; op++ {
			t := time.Now()
			res, err := w.mine(fresh(in), w.opts, tr, op, acc)
			lat := time.Since(t)
			win.lat = append(win.lat, ms(lat))
			win.busy += lat
			win.attempted++
			if acc != nil && err == nil {
				err = acc.reparse(tr, op)
			}
			switch {
			case err != nil:
				win.fail(err)
			case digest(res.Counts) != ref:
				win.fail(fmt.Errorf("op %d: result differs from the MineMemory reference", op))
			}
		}
		win.elapsed = time.Since(start)
		m.stop(win)
		return win
	}

	if !cfg.trace {
		measure(cfg.window, nil, nil).fill(rep)
		return rep, nil
	}
	plain := measure(cfg.window/2, nil, nil)
	plain.fill(rep)
	tr := newTracer()
	acc := &layerAcc{}
	traced := measure(cfg.window/2, tr, acc)
	traced.tally(rep, "traced")
	rep.set("trace.overhead_ms", median(traced.lat)-median(plain.lat))
	acc.report(rep, tr)
	reportSelfTimes(rep, tr, traced.attempted)
	zeroServer(rep)
	rep.check(acc.pinnedMax == 0, "storage.pinned_frames_end = %d, want 0", acc.pinnedMax)
	path, err := tr.dump(cfg.out+"/traces", cfg.workload, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.notef("spans: %s", path)
	return rep, nil
}

func mineAuto(d *core.Dataset, opts core.Options, tr *tracer, op int, acc *layerAcc) (*core.Result, error) {
	if tr == nil {
		return core.MineAuto(d, opts)
	}
	root := tr.begin(op, 0, "bench.op")
	pool := storage.NewPool(storage.NewMemStore(), poolFrames)
	call := tr.begin(op, root, "core.MineAutoMonitored")
	t0 := time.Now()
	res, err := core.MineAutoMonitored(context.Background(), d, opts, pool, func(st core.IterationStat) {
		end := tr.now()
		tr.add(op, call, "core.iter."+st.Plan.Kernel, end-int64(st.Duration), end)
	})
	callDur := time.Since(t0)
	tr.end(call)
	tr.end(root)
	if err == nil {
		acc.addResult(res, callDur)
		acc.addPool(pool)
	}
	return res, err
}

func mineSQL(d *core.Dataset, opts core.Options, tr *tracer, op int, acc *layerAcc) (*core.Result, error) {
	if tr == nil {
		return core.MineSQL(d, opts, core.SQLConfig{})
	}
	root := tr.begin(op, 0, "bench.op")
	rows := tr.begin(op, root, "core.SalesRows")
	d.SalesRows()
	tr.end(rows)
	call := tr.begin(op, root, "core.MineSQL")
	// Each statement's span runs from its TraceSQL callback to the next
	// one (or to MineSQL's return); the span before the first callback
	// is the SALES bulk load.
	cur := tr.begin(op, call, "engine.load")
	var stmts []string
	var ids []int
	t0 := time.Now()
	res, err := core.MineSQL(d, opts, core.SQLConfig{TraceSQL: func(sql string) {
		tr.end(cur)
		cur = tr.begin(op, call, "engine.stmt")
		stmts = append(stmts, sql)
		ids = append(ids, cur)
	}})
	callDur := time.Since(t0)
	tr.end(cur)
	tr.end(call)
	tr.end(root)
	acc.pending = stmts
	acc.pendingIDs = ids
	if err == nil {
		acc.addResult(res, callDur)
	}
	return res, err
}

// stmtClass names a SETM statement by its shape: the R'_k join
// (extend), the C_k group (count), the R_k join (materialize), a bare
// query (select) or DDL.
func stmtClass(st sqlparse.Stmt) string {
	switch s := st.(type) {
	case *sqlparse.CreateTable, *sqlparse.DropTable:
		return "ddl"
	case *sqlparse.Select:
		return "select"
	case *sqlparse.Insert:
		switch {
		case s.Select == nil:
			return "ddl"
		case len(s.Select.GroupBy) > 0:
			return "count"
		case len(s.Select.OrderBy) > 0:
			return "materialize"
		default:
			return "extend"
		}
	}
	return "ddl"
}

// layerAcc accumulates the traced half's per-op layer figures.
type layerAcc struct {
	ops                               int
	callNs, iterNs, initNs            int64
	packedResNs, packedSpillNs, genNs int64
	rprime, rrows, rprimeK, rrowsK    int64
	sortsSkipped, runs, spillBytes    int64
	maxK                              int
	reads, writes, hits, seqReads     int64
	pinnedMax                         int
	parseNs                           int64
	stmts                             int

	// The last SQL op's statements and their span ids, re-parsed by
	// reparse once the op's time is taken.
	pending    []string
	pendingIDs []int
}

// reparse times the SQL front end alone on the statements the last op
// ran, and names each statement span by its shape.
func (a *layerAcc) reparse(tr *tracer, op int) error {
	for i, sql := range a.pending {
		p := tr.begin(op, 0, "sqlparse.Parse")
		t := time.Now()
		st, err := sqlparse.Parse(sql)
		a.parseNs += int64(time.Since(t))
		tr.end(p)
		if err != nil {
			return fmt.Errorf("re-parse %q: %w", sql, err)
		}
		tr.rename(a.pendingIDs[i], "engine."+stmtClass(st))
	}
	a.stmts += len(a.pending)
	a.pending, a.pendingIDs = a.pending[:0], a.pendingIDs[:0]
	return nil
}

// addResult folds one op's iteration statistics in. Iteration 1
// (dictionary, pack and C_1) is core.init_ms; the kernel sums cover
// k >= 2.
func (a *layerAcc) addResult(res *core.Result, call time.Duration) {
	a.ops++
	a.callNs += int64(call)
	for i, st := range res.Stats {
		a.iterNs += int64(st.Duration)
		a.rprime += st.RPrimeRows
		a.rrows += st.RRows
		a.sortsSkipped += st.SortsSkipped
		a.runs += st.RunsSpilled
		a.spillBytes += st.SpillBytes
		if i == 0 {
			a.initNs += int64(st.Duration)
			continue
		}
		a.rprimeK += st.RPrimeRows
		a.rrowsK += st.RRows
		switch {
		case st.Plan.Kernel == core.KernelGeneric:
			a.genNs += int64(st.Duration)
		case st.Plan.Kernel == core.KernelPacked && st.Plan.Regime == core.RegimeResident:
			a.packedResNs += int64(st.Duration)
		case st.Plan.Kernel == core.KernelPacked:
			a.packedSpillNs += int64(st.Duration)
		}
	}
	a.maxK = max(a.maxK, res.MaxLen())
}

func (a *layerAcc) addPool(p *storage.Pool) {
	a.reads += p.Stats.Reads
	a.writes += p.Stats.Writes
	a.hits += p.Stats.Hits
	a.seqReads += p.Stats.SeqReads
	a.pinnedMax = max(a.pinnedMax, p.PinnedFrames())
}

// report sets the core, storage, sqlparse and engine metrics, per op.
func (a *layerAcc) report(rep *report, tr *tracer) {
	n := float64(max(a.ops, 1))
	perOpMs := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	rep.set("core.salesrows_ms", perOpMs(tr.sumByName("core.SalesRows")))
	rep.set("core.init_ms", perOpMs(a.initNs))
	rep.set("core.packed_resident_ms", perOpMs(a.packedResNs))
	rep.set("core.packed_spilled_ms", perOpMs(a.packedSpillNs))
	rep.set("core.generic_ms", perOpMs(a.genNs))
	rep.set("core.delta_ms", 0)
	rep.set("core.outside_iter_ms", perOpMs(a.callNs-a.iterNs))
	rep.set("core.rprime_rows", float64(a.rprime)/n)
	rep.set("core.r_rows", float64(a.rrows)/n)
	rep.set("core.candidate_yield", ratio(float64(a.rrowsK), float64(a.rprimeK)))
	rep.set("core.ns_per_rprime_row", ratio(float64(a.callNs), float64(a.rprime)))
	rep.set("core.max_k", float64(a.maxK))
	rep.set("core.sorts_skipped", float64(a.sortsSkipped)/n)

	rep.set("storage.page_reads", float64(a.reads)/n)
	rep.set("storage.page_writes", float64(a.writes)/n)
	rep.set("storage.hit_ratio", ratio(float64(a.hits), float64(a.hits+a.reads)))
	rep.set("storage.seq_read_ratio", ratio(float64(a.seqReads), float64(a.reads)))
	rep.set("storage.runs_spilled", float64(a.runs)/n)
	rep.set("storage.spill_bytes", float64(a.spillBytes)/n)
	rep.set("storage.page_io_per_rprime_row", ratio(float64(a.reads+a.writes), float64(a.rprime)))
	rep.set("storage.pinned_frames_end", float64(a.pinnedMax))

	rep.set("sqlparse.parse_us_per_stmt", ratio(float64(a.parseNs), float64(a.stmts))/1e3)
	rep.set("sqlparse.stmts_per_mine", float64(a.stmts)/n)
	for _, class := range []string{"load", "extend", "count", "materialize", "select", "ddl"} {
		rep.set("engine."+class+"_ms", perOpMs(tr.sumByName("engine."+class)))
	}
}

// zeroServer sets the setmd-only metrics on a library workload, which
// has no server, WAL or request mix.
func zeroServer(rep *report) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "server.") && d.name != "server.self_ms" || strings.HasPrefix(d.name, "wal.") {
			rep.set(d.name, 0)
		}
	}
	for _, name := range []string{"hit_ms_p50", "cold_ms_p50", "refresh_ms_p50", "slo_ok_ratio", "recover_s", "disk_bytes_per_input_byte"} {
		rep.set(name, 0)
	}
}

// noteShape records the input's measured shape: size, frequent items,
// pattern length, the plans the executor chose and the largest
// candidate relation against the memory budget.
func noteShape(rep *report, in *core.Dataset, res *core.Result, opts core.Options) {
	plans := map[string]int{}
	var peakRows int64
	for _, st := range res.Stats {
		plans[st.Plan.Kernel+"/"+st.Plan.Regime]++
		peakRows = max(peakRows, st.RPrimeRows)
	}
	keys := make([]string, 0, len(plans))
	for k := range plans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var shares []string
	for _, k := range keys {
		shares = append(shares, fmt.Sprintf("%s=%d/%d", k, plans[k], len(res.Stats)))
	}
	budget := "unbounded"
	if opts.MemoryBudget > 0 {
		budget = fmt.Sprintf("%d", opts.MemoryBudget)
	}
	rep.notef("shape: txns=%d |R_1|=%d frequent_items=%d max_k=%d iterations: %s peak_rprime_bytes=%d budget=%s",
		len(in.Transactions), res.Stats[0].RPrimeRows, len(res.C(1)), res.MaxLen(),
		strings.Join(shares, " "), peakRows*packedRowBytes, budget)
	rep.notef("nproc=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
