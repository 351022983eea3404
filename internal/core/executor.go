package core

// The adaptive mining executor. The paper's central argument (Sections
// 3.2 and 4.3) is that SETM's per-pass cost is predictable from relation
// cardinalities — which is exactly what lets a DBMS *plan* each pass
// instead of hard-coding a strategy. This file is that planner's engine
// room: one stepper that, at the top of every pipeline iteration, picks
// a strategy IR (IterPlan: kernel, memory regime, parallelism, exchange)
// from the cardinalities the previous iteration observed, then executes
// the iteration under it.
//
//   - kernel packed|generic: the bit-packed 64-bit key kernels while the
//     pattern fits one word, the generic int64 kernels past it;
//   - regime resident|spilled: arena-backed in-RAM slices versus
//     budget-bounded spillable relations streaming through the buffer
//     pool as raw packed-page runs (spill.go);
//   - parallelism 1..N: the resident kernels fan out across chunk
//     workers (parallel.go); the spilled regime morsel-splits the
//     relations into tid-aligned windows, each worker spilling into
//     private run sets merged by a concurrent cascade (xsort);
//   - exchange none|sharded: sharded is the partitioned driver's
//     count-distribution exchange (partition.go), a fixed plan.
//
// Every public driver is a thin wrapper over this stepper with either a
// fixed plan (Mine, MineParallel, MinePaged) or the cost-model-driven
// adaptive strategy (MineAuto, and MinePaged under Options.Strategy =
// StrategyAuto). The chosen plan is recorded per iteration in
// IterationStat.Plan, so benchmarks and EXPLAIN-style output show why
// each pass ran the way it did.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"setm/internal/costmodel"
	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
	"setm/internal/xsort"
)

// IterPlan is the per-iteration strategy IR the executor commits to at
// the top of each SETM pass.
type IterPlan struct {
	// Kernel is "packed" (64-bit packed-key kernels) or "generic" (the
	// int64 relation kernels, forced once k*bitsPerItem exceeds 64).
	Kernel string
	// Regime is "resident" (relations in RAM, no budget machinery) or
	// "spilled" (budget-bounded spillable relations; runs are written
	// only when a buffer actually outgrows its share).
	Regime string
	// Workers is the fan-out the iteration's kernels run at.
	Workers int
	// Exchange is "none" (single executor) or "sharded" (the partitioned
	// driver's per-shard pipelines with a global count merge).
	Exchange string
}

// IterPlan vocabulary.
const (
	KernelPacked    = "packed"
	KernelGeneric   = "generic"
	KernelSQL       = "sql"   // the SQL driver's engine-executed statements
	KernelDelta     = "delta" // MineDelta's incremental count-merge pass
	RegimeResident  = "resident"
	RegimeSpilled   = "spilled"
	ExchangeNone    = "none"
	ExchangeSharded = "sharded"
)

// String renders the plan compactly: "packed/spilled/4w".
func (p IterPlan) String() string {
	if p.Kernel == "" {
		return ""
	}
	s := p.Kernel + "/" + p.Regime + "/" + strconv.Itoa(p.Workers) + "w"
	if p.Exchange == ExchangeSharded {
		s += "/sharded"
	}
	return s
}

// strategyFunc maps the planner's observations to an iteration plan.
type strategyFunc func(costmodel.PlanInput) IterPlan

// fixedStrategy is a driver that always runs one point in the strategy
// space: workers kernels, and — when budgetBounded — the spilled regime
// whenever a positive budget is in force (the regime's appenders write
// runs only if a buffer actually overflows its budget share).
func fixedStrategy(workers int, budgetBounded bool) strategyFunc {
	return func(in costmodel.PlanInput) IterPlan {
		p := IterPlan{Kernel: KernelPacked, Regime: RegimeResident, Workers: workers, Exchange: ExchangeNone}
		if !in.PackedOK {
			p.Kernel = KernelGeneric
		}
		if budgetBounded && in.Budget > 0 {
			p.Regime = RegimeSpilled
		}
		return p
	}
}

// autoStrategy consults the cost model: packed while the key fits,
// spilled exactly when the modeled packed footprint crosses the budget,
// and the worker count that minimizes the modeled iteration cost.
func autoStrategy() strategyFunc {
	return func(in costmodel.PlanInput) IterPlan {
		c := costmodel.ChoosePlan(in)
		p := IterPlan{Kernel: KernelPacked, Regime: RegimeResident, Workers: c.Workers, Exchange: ExchangeNone}
		if !c.Packed {
			p.Kernel = KernelGeneric
		}
		if c.Spill {
			p.Regime = RegimeSpilled
		}
		return p
	}
}

// MineAuto runs Algorithm SETM under the adaptive executor: every
// iteration's kernel, memory regime, and parallelism are chosen by the
// cost model from the previous iteration's observed cardinalities,
// Options.MemoryBudget (<= 0: unbounded, fully resident), and the
// available CPUs (capped by Options.MaxWorkers). Results are
// bit-identical to Mine; the chosen plans are recorded in
// Result.Stats[i].Plan.
func MineAuto(d *Dataset, opts Options) (*Result, error) {
	return MineAutoContext(context.Background(), d, opts)
}

// MineAutoContext is MineAuto under a context: the executor polls ctx at
// every iteration boundary and — in the spilled regime — at morsel and
// merge granularity, so a cancelled job returns promptly with its
// arenas released, its partial spill runs recycled into the pool's free
// list, and zero pinned frames. The returned error wraps ctx.Err().
func MineAutoContext(ctx context.Context, d *Dataset, opts Options) (*Result, error) {
	return MineAutoMonitored(ctx, d, opts, nil, nil)
}

// MineAutoMonitored is MineAutoContext with the hooks a long-running
// service needs: a caller-owned buffer pool (so the caller can watch
// PinnedFrames and page I/O while the job runs; nil for a private pool)
// and a per-iteration observer receiving each IterationStat as the pass
// completes (nil for none).
func MineAutoMonitored(ctx context.Context, d *Dataset, opts Options, pool *storage.Pool, onIter func(IterationStat)) (*Result, error) {
	if opts.DisablePackedKernels {
		// The generic-kernel ablation runs the flat-relation substrate
		// directly; adaptivity there is limited to the worker fan-out.
		return runPipelineCtx(ctx, d, opts, newMemoryStepper(d, opts, resolveWorkers(opts.MaxWorkers)), onIter)
	}
	cfg := PagedConfig{}.withDefaults()
	if pool != nil {
		cfg.PoolFrames = pool.Capacity()
	}
	st := newExecStepper(d, opts, cfg, nil, autoStrategy())
	st.ctx = ctx
	if pool != nil {
		st.attachPool(pool)
	}
	return runPipelineCtx(ctx, d, opts, st, onIter)
}

// resolveWorkers applies the MaxWorkers default (GOMAXPROCS).
func resolveWorkers(maxWorkers int) int {
	if maxWorkers > 0 {
		return maxWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// newExecStepper builds the executor. pres may be nil (a private result
// is kept for the wide-pattern fallback's accounting); cfg supplies the
// pool geometry and page store for spilled regimes. The budget is taken
// from opts.MemoryBudget as-is: positive bounds the working set, zero or
// negative means unbounded (MinePaged resolves its pool-sized default
// before calling).
func newExecStepper(d *Dataset, opts Options, cfg PagedConfig, pres *PagedResult, strat strategyFunc) *execStepper {
	if pres == nil {
		pres = &PagedResult{}
	}
	budget := opts.MemoryBudget
	if budget < 0 {
		budget = 0
	}
	return &execStepper{
		d: d, opts: opts, cfg: cfg, pres: pres, strat: strat,
		budget: budget, maxWorkers: resolveWorkers(opts.MaxWorkers),
		retainBorder: opts.RetainBorder,
	}
}

// execStepper is the adaptive executor: the one substrate behind Mine,
// MineParallel, MinePaged, and MineAuto.
type execStepper struct {
	d     *Dataset
	opts  Options
	cfg   PagedConfig
	pres  *PagedResult
	strat strategyFunc

	budget     int64 // 0 = unbounded
	maxWorkers int

	// ctx, when non-nil, is polled by the kernels at morsel granularity
	// so a cancelled run stops between groups instead of finishing the
	// iteration; the error paths it triggers are the same ones injected
	// storage faults exercise, so cleanup (appender aborts, run frees,
	// pin releases) is shared.
	ctx context.Context

	pool *storage.Pool // created by attachPool, or lazily at first spill

	dict  *packDict
	ar    *mineArena
	sales *srel // packed R_1
	rk    *srel // R_{k-1}
	join  *srel // join side (sales, or the prefiltered R_1)
	ck    pkCounts
	st    spillStats

	avgBasket  float64
	salesTotal int64 // |packed SALES|, the checkpoint's dataset identity
	prevRPrime int64
	prevRRows  int64

	fbFlat  *flatStepper // wide-pattern fallback, fully resident runs
	fbPaged *pagedStepper
	convIO  int64 // page I/O of the fallback's relation decode

	// Border retention (Options.RetainBorder): the count kernels run at
	// threshold 1 and splitBorder keeps the sub-minsup runs — the
	// negative border — per iteration. borderLost marks a run the
	// wide-pattern fallback took over mid-way: the generic kernels count
	// at minsup directly, so the border from there on is unknowable and
	// no snapshot is produced.
	retainBorder bool
	borderLost   bool
	borders      []pkCounts
}

// attachPool hands the executor a caller-owned buffer pool (MinePaged's,
// so its PagedResult.IO covers the whole run).
func (s *execStepper) attachPool(pool *storage.Pool) { s.pool = pool }

// cancelled is the executor's cancellation checkpoint: nil while the run
// may continue, the context's error once it must stop. Kernels poll it
// at morsel boundaries and every cancelCheckRows rows inside streaming
// loops.
func (s *execStepper) cancelled() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// cancelCheckRows is how many rows (or merged keys) a streaming loop
// processes between cancellation checkpoints — small enough that a
// cancelled spilled pass stops in well under a millisecond of work,
// large enough that ctx.Err()'s mutex never shows up in profiles.
const cancelCheckRows = 4096

// abort releases everything a failed or cancelled run still holds: the
// live relations' spilled runs go back to the pool's free list and the
// packed state's arenas are returned. Pin releases are the kernels' own
// responsibility (their error paths already unpin, as the fault sweeps
// prove); abort reclaims what survives those paths — the relations the
// stepper itself owns across iterations.
func (s *execStepper) abort() {
	if s.pool != nil {
		rels := []*srel{s.rk, s.join, s.sales}
		for i, r := range rels {
			if r == nil {
				continue
			}
			aliased := false
			for j := 0; j < i; j++ {
				if rels[j] == r {
					aliased = true
					break
				}
			}
			if !aliased {
				r.free(s.pool)
			}
		}
	}
	s.releasePacked()
}

// ensurePool creates the executor's private pool on first spill.
func (s *execStepper) ensurePool() {
	if s.pool == nil {
		store := s.cfg.Store
		if store == nil {
			store = storage.NewMemStore()
		}
		s.pool = storage.NewPool(store, s.cfg.PoolFrames)
	}
}

// nextPlan asks the strategy for the upcoming iteration's plan, feeding
// it the previous iteration's observed cardinalities.
func (s *execStepper) nextPlan(k int, prevRPrime, prevRRows int64) IterPlan {
	packedOK := true
	if s.dict != nil {
		packedOK = k <= s.dict.maxPackedK()
	}
	p := s.strat(costmodel.PlanInput{
		K: k, PrevRPrime: prevRPrime, PrevRRows: prevRRows,
		AvgBasket: s.avgBasket, PackedOK: packedOK,
		Budget: s.budget, Workers: s.maxWorkers, PoolFrames: s.cfg.PoolFrames,
		Checkpoint: s.opts.Checkpoint != nil,
	})
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.Regime == RegimeSpilled {
		// Safety net for arbitrary (fixed/forced) strategies; the auto
		// strategy already models this cap inside ChoosePlan.
		if byPool := costmodel.SpillWorkerCap(s.cfg.PoolFrames); p.Workers > byPool {
			p.Workers = byPool
		}
	}
	return p
}

// chunk is the per-buffer share of the budget (four live bounded buffers:
// the R'_k appender, the key-sort buffer, the R_k appender, and the
// streaming cursors' scratch). Zero when unbounded.
func (s *execStepper) chunk() int64 {
	if s.budget <= 0 {
		return 0
	}
	c := s.budget / 4
	if c < storage.PageSize {
		c = storage.PageSize
	}
	return c
}

// capRows is one appender's row bound when the chunk is split across w
// workers; 0 when unbounded.
func (s *execStepper) capRows(w int) int {
	c := s.chunk()
	if c <= 0 {
		return 0
	}
	n := int(c / costmodel.PackedRowBytes / int64(w))
	if n < rowsPerPage {
		n = rowsPerPage // one page of rows
	}
	return n
}

// capKeys is one key counter's bound under w workers; 0 when unbounded.
func (s *execStepper) capKeys(w int) int {
	c := s.chunk()
	if c <= 0 {
		return 0
	}
	n := int(c / costmodel.PackedKeyBytes / int64(w))
	if n < storage.WordsPerPage {
		n = storage.WordsPerPage // one page of keys
	}
	return n
}

// countSup is the threshold the count kernels run at: minSup normally,
// 1 under border retention so every candidate run survives for
// splitBorder to partition.
func (s *execStepper) countSup(minSup int64) int64 {
	if s.retainBorder {
		return 1
	}
	return minSup
}

// splitBorder applies the support threshold to a border-retaining count
// list: the frequent entries are compacted in place (bit-identical to a
// direct minSup count) and the negative border is copied aside into
// this iteration's slot. A plain pass-through when retention is off.
func (s *execStepper) splitBorder(ck pkCounts, minSup int64) pkCounts {
	if !s.retainBorder {
		return ck
	}
	freq, border := splitBorderCounts(ck, minSup)
	s.borders = append(s.borders, border)
	s.ck = freq
	return freq
}

// startIteration begins the per-iteration accounting window.
func (s *execStepper) startIteration() (ioStart int64, stStart spillStats) {
	if s.pool != nil {
		ioStart = s.pool.Stats.Accesses()
	}
	return ioStart, s.st
}

// endIteration closes the window into the iteration's spill accounting.
func (s *execStepper) endIteration(sz *iterSizes, ioStart int64, stStart spillStats) {
	sz.runsSpilled = s.st.runs - stStart.runs
	sz.spillBytes = s.st.bytes - stStart.bytes
	if s.pool != nil {
		sz.pageIO = s.pool.Stats.Accesses() - ioStart
	}
}

func (s *execStepper) observe(sz iterSizes) {
	s.prevRPrime, s.prevRRows = sz.rPrime, sz.rRows
}

func (s *execStepper) init(minSup int64) ([]ItemsetCount, iterSizes, error) {
	total := 0
	for _, tx := range s.d.Transactions {
		total += len(tx.Items)
	}
	if n := len(s.d.Transactions); n > 0 {
		s.avgBasket = float64(total) / float64(n)
	}
	plan := s.nextPlan(1, int64(total), int64(total))
	if plan.Regime == RegimeSpilled {
		s.ensurePool()
	}
	ioStart, stStart := s.startIteration()

	s.ar = newMineArena()
	s.dict = buildDict(s.d, s.ar)
	mem := packSales(s.d, s.dict, s.ar)
	salesRows := int64(len(mem))
	s.salesTotal = salesRows

	// C_1: resident, a histogram over the item codes counted straight
	// off R_1 (every code occurs in R_1, so the table never has more
	// entries than R_1 has rows). Spilled, the paper's sort of R_1 on
	// item: the keys stream through budget-bounded counters that spill
	// sorted runs and merge them.
	var skips int64
	var ck pkCounts
	var err error
	if plan.Regime == RegimeSpilled {
		ck, skips, err = s.countMemStreaming(mem, s.countSup(minSup), plan)
		if err != nil {
			return nil, iterSizes{}, err
		}
	} else {
		ck = s.countResident(mem, uint64(len(s.dict.items)), s.countSup(minSup), plan.Workers, &skips)
	}
	ck = s.splitBorder(ck, minSup)
	c1 := decodePatterns(ck, 1, s.dict)

	// The paper does not filter R_1 by C_1 (Section 6.1); PrefilterSales
	// is the ablation restricting both join sides to frequent items.
	var sales *srel
	if s.opts.PrefilterSales {
		if plan.Regime == RegimeSpilled {
			sales, err = s.filterMemStreaming(mem, 1, ck, plan)
			if err != nil {
				return nil, iterSizes{}, err
			}
			// The unfiltered rows are dead; keep the arena buffer.
		} else {
			s.ar.joinBuf = packedFilter(mem, ck.keys, s.ar.joinBuf[:0])
			sales = memSrel(s.ar.joinBuf)
		}
	} else {
		sales = memSrel(mem)
		if cap := s.capRows(1); plan.Regime == RegimeSpilled && cap > 0 && len(mem) > cap {
			// R_1 outgrows its budget share: spill it (in parallel when
			// the plan fans out) and drop the resident copy — the runs
			// are then the only holder, so the budget genuinely bounds
			// R_1's RAM. The arena must not recycle the dropped buffer.
			sales, err = s.spillMemParallel(mem, plan.Workers)
			if err != nil {
				return nil, iterSizes{}, err
			}
			s.ar.salesBuf = nil
		}
	}
	s.sales, s.rk, s.join = sales, sales, sales

	s.pres.RPages = append(s.pres.RPages, s.rk.pages())
	s.pres.RPrimePages = append(s.pres.RPrimePages, s.rk.pages())
	sz := iterSizes{rPrime: salesRows, rRows: s.rk.rows(), sortSkips: skips, plan: plan}
	s.endIteration(&sz, ioStart, stStart)
	s.observe(sz)
	return c1, sz, nil
}

func (s *execStepper) step(k int, minSup int64) ([]ItemsetCount, iterSizes, error) {
	if s.fbFlat != nil {
		ck, sz, err := s.fbFlat.step(k, minSup)
		sz.plan = IterPlan{Kernel: KernelGeneric, Regime: RegimeResident, Workers: s.fbFlat.workers, Exchange: ExchangeNone}
		return ck, sz, err
	}
	if s.fbPaged != nil {
		ck, sz, err := s.fbPaged.step(k, minSup)
		if err != nil {
			return nil, iterSizes{}, err
		}
		sz.pageIO += s.convIO
		s.convIO = 0
		sz.plan = IterPlan{Kernel: KernelGeneric, Regime: RegimeSpilled, Workers: 1, Exchange: ExchangeNone}
		return ck, sz, nil
	}

	plan := s.nextPlan(k, s.prevRPrime, s.prevRRows)
	if k > s.dict.maxPackedK() {
		return s.stepWideFallback(k, minSup, plan)
	}
	if plan.Regime == RegimeResident && s.rk.resident() && s.join.resident() {
		return s.stepResident(k, minSup, plan)
	}
	// The streaming path also serves a resident plan whose *inputs* are
	// still spilled (the spilled→resident transition): unbounded
	// appenders then land the outputs in RAM.
	if plan.Regime == RegimeSpilled || !s.rk.resident() || !s.join.resident() {
		s.ensurePool()
	}
	return s.stepStreaming(k, minSup, plan)
}

// stepResident is the in-RAM fast path: the packed kernels of pack.go on
// arena-backed slices, fanned across workers by the chunk kernels of
// parallel.go when the plan says so. No budget machinery, no cursors.
func (s *execStepper) stepResident(k int, minSup int64, plan IterPlan) ([]ItemsetCount, iterSizes, error) {
	ioStart, stStart := s.startIteration()
	rk := s.rk.flatten()
	join := s.join.flatten()

	// sort R_{k-1} on (trans_id, items): every producer of R_{k-1} —
	// packSales, the extension and the filter — emits rows in that order,
	// so the sort is provably redundant.
	skips := int64(1)

	// R'_k := merge-scan(R_{k-1}, R_1).
	var rPrime []prow
	if plan.Workers > 1 && len(rk) >= parallelMinRows {
		rPrime = extendParallelPacked(rk, join, s.dict.bits, plan.Workers, s.ar)
	} else {
		rPrime = packedExtend(rk, join, s.dict.bits, s.ar.ext[:0])
	}
	s.ar.ext = rPrime

	// C_k: count the keys (by histogram over a narrow key domain, else
	// by sorting a copy of the key column), apply the support threshold.
	ck := s.splitBorder(s.countResident(rPrime, s.dict.keyDomain(k), s.countSup(minSup), plan.Workers, &skips), minSup)
	cOut := decodePatterns(ck, k, s.dict)

	// R_k := filter R'_k by C_k. Filtering preserves (trans_id, items)
	// order, so the paper's post-filter sort is provably unnecessary.
	bm := buildKeyBitmap(ck.keys, uint(k)*s.dict.bits, s.ar)
	var out []prow
	if plan.Workers > 1 && len(rPrime) >= parallelMinRows {
		out = filterParallelPacked(rPrime, ck.keys, bm, plan.Workers, s.ar)
	} else if bm != nil && len(ck.keys) > 0 {
		out = packedFilterBitmap(rPrime, bm, s.ar.rkBuf[:0])
	} else {
		out = packedFilter(rPrime, ck.keys, s.ar.rkBuf[:0])
	}
	s.ar.rkBuf = out
	skips++
	s.rk = memSrel(out)

	s.pres.RPages = append(s.pres.RPages, s.rk.pages())
	s.pres.RPrimePages = append(s.pres.RPrimePages, int(costmodel.PackedPages(int64(len(rPrime)), costmodel.PackedRowBytes)))
	sz := iterSizes{rPrime: int64(len(rPrime)), rRows: s.rk.rows(), sortSkips: skips, plan: plan}
	s.endIteration(&sz, ioStart, stStart)
	s.observe(sz)
	return cOut, sz, nil
}

// countResident produces the packed C_k of resident rows at minSup into
// the stepper's reused C_k buffer (see countRows). Only a key domain
// wider than the row count, on a plan that fans out, sorts and counts
// key-column chunks concurrently.
func (s *execStepper) countResident(rows []prow, domain uint64, minSup int64, workers int, skips *int64) pkCounts {
	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	if domain > uint64(len(rows)) && workers > 1 && len(rows) >= parallelMinRows {
		dst = countKeysParallel(keyColumn(rows, s.ar), minSup, workers, s.ar, dst, skips)
	} else {
		dst = countRows(rows, domain, minSup, s.ar, dst, skips)
	}
	s.ck = dst
	return dst
}

// stepStreaming is the spillable path: budget-bounded appenders and key
// counters over morsel-split group cursors. With plan.Workers > 1 the
// morsels run concurrently, each worker spilling into private run sets;
// with a resident plan (spilled→resident transition) the caps are
// simply unbounded and the outputs land in RAM.
func (s *execStepper) stepStreaming(k int, minSup int64, plan IterPlan) ([]ItemsetCount, iterSizes, error) {
	ioStart, stStart := s.startIteration()
	// sort R_{k-1} on (trans_id, items): relations are appended (and
	// spilled) in exactly that order, so the sort is provably redundant.
	skips := int64(1)

	W := plan.Workers
	if s.rk.rows() < parallelMinRows {
		W = 1
	}
	srcs, err := splitGroups(s.pool, s.rk, W)
	if err != nil {
		return nil, iterSizes{}, err
	}
	if len(srcs) == 0 {
		srcs = []groupSrc{{pool: s.pool, mem: nil}}
	}
	W = len(srcs)

	capR, capK := 0, 0
	if plan.Regime == RegimeSpilled {
		capR, capK = s.capRows(W), s.capKeys(W)
	}
	fanIn := mergeFanIn(s.pool, s.chunk())

	// R'_k := merge-scan(R_{k-1}, R_1), streamed group by group; output
	// inherits (trans_id, items) order, so each morsel spills as
	// sequential runs with no sort. The key column is counted on the fly
	// (fused with the extension), saving a full re-read of R'_k.
	apps := make([]*spillAppender, W)
	kcs := make([]*keyCounter, W)
	stats := make([]spillStats, W)
	errs := make([]error, W)
	s.ar.workerSlots(W)
	for w := 0; w < W; w++ {
		apps[w] = &spillAppender{pool: s.pool, capRows: capR, st: &stats[w]}
		kcs[w] = &keyCounter{ctx: s.ctx, pool: s.pool, capKeys: capK, fanIn: fanIn, st: &stats[w]}
		kcs[w].keys = s.ar.wKeys[w][:0]
		kcs[w].tmp = s.ar.wTmp[w]
	}
	if W == 1 {
		// The serial appender can reuse the arena's extension buffer for
		// its resident portion.
		apps[0].mem = s.ar.ext[:0]
		errs[0] = s.extendMorsel(srcs[0], apps[0], kcs[0], false)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = s.extendMorsel(srcs[w], apps[w], kcs[w], true)
			}(w)
		}
		wg.Wait()
	}
	segs := make([]sseg, 0, W)
	for w := 0; w < W; w++ {
		if errs[w] == nil {
			var seg sseg
			seg, errs[w] = apps[w].finishSeg()
			if errs[w] == nil {
				segs = append(segs, seg)
			}
		}
	}
	for w := 0; w < W; w++ {
		if errs[w] != nil {
			for i := range segs {
				if segs[i].spilled {
					segs[i].run.Free(s.pool)
				}
			}
			for _, a := range apps {
				a.abort(s.pool)
			}
			for _, kc := range kcs {
				kc.abort()
			}
			s.mergeWorkerState(kcs, stats, W)
			return nil, iterSizes{}, errs[w]
		}
	}
	rPrime := assembleSrel(segs)
	if s.rk != s.join {
		s.rk.free(s.pool) // consumed; the join side lives on
	}
	s.rk = nil

	// C_k: the fused counters' bounded radix runs, merged and counted.
	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	var ck pkCounts
	if W == 1 {
		ck, err = kcs[0].finish(s.countSup(minSup), dst)
	} else {
		ck, err = finishCounters(s.pool, kcs, fanIn, s.mergeWorkers(W, fanIn), s.countSup(minSup), dst)
	}
	skips += s.mergeWorkerState(kcs, stats, W)
	if err != nil {
		rPrime.free(s.pool)
		return nil, iterSizes{}, err
	}
	s.ck = ck
	ck = s.splitBorder(ck, minSup)
	cOut := decodePatterns(ck, k, s.dict)

	// R_k := filter R'_k by C_k; filtering preserves (trans_id, items)
	// order, so the paper's post-filter sort is skipped.
	rk, err := s.filterStreaming(rPrime, k, ck, W, capR, true)
	rPrimePages := rPrime.pages()
	rPrimeRows := rPrime.rows()
	rPrime.free(s.pool)
	if err != nil {
		return nil, iterSizes{}, err
	}
	skips++
	s.rk = rk

	s.pres.RPages = append(s.pres.RPages, rk.pages())
	s.pres.RPrimePages = append(s.pres.RPrimePages, rPrimePages)
	sz := iterSizes{rPrime: rPrimeRows, rRows: rk.rows(), sortSkips: skips, plan: plan}
	s.endIteration(&sz, ioStart, stStart)
	s.observe(sz)
	return cOut, sz, nil
}

// mergeWorkerState folds the workers' spill stats into the run total,
// returns the workers' sort-skip tally, and re-stashes the counters'
// grown buffers in the arena for the next iteration.
func (s *execStepper) mergeWorkerState(kcs []*keyCounter, stats []spillStats, w int) int64 {
	var skips int64
	for i := 0; i < w; i++ {
		s.st.merge(stats[i])
		skips += kcs[i].skips
		s.ar.wKeys[i] = kcs[i].keys
		s.ar.wTmp[i] = kcs[i].tmp
	}
	return skips
}

// mergeWorkers bounds the concurrent cascade groups of the final count
// merge: each group holds fanIn read-ahead buffers, so the budget share
// caps how many run at once.
func (s *execStepper) mergeWorkers(w int, fanIn int) int {
	if c := s.chunk(); c > 0 {
		if byMem := int(c / (int64(fanIn) * storage.RunReadAheadBytes)); byMem < w {
			w = byMem
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// extendMorsel runs the merge-scan extension over one tid-aligned morsel
// of R_{k-1}: groups of the morsel joined against the matching groups of
// the join side, appending R'_k rows to app and their keys to kc. When
// seekJoin is set (parallel morsels), the join cursor fast-starts at the
// morsel's first transaction.
func (s *execStepper) extendMorsel(src groupSrc, app *spillAppender, kc *keyCounter, seekJoin bool) error {
	if err := s.cancelled(); err != nil {
		return err
	}
	rkG := src.open()
	defer rkG.close()
	g1, err := rkG.next()
	if err != nil || g1 == nil {
		return err
	}
	var joinG groupIter
	if seekJoin {
		joinG, err = seekGroups(s.pool, s.join, g1[0].Tid)
	} else {
		// The join side gets its own cursor even when it is the same
		// relation (iteration 2's self-join): each stream needs
		// independent position.
		joinG = groupsOf(s.pool, s.join)
	}
	if err != nil {
		return err
	}
	defer joinG.close()
	g2, err := joinG.next()
	if err != nil {
		return err
	}

	mask := uint64(1)<<s.dict.bits - 1
	var scratch []prow
	var sinceCheck int
	for g1 != nil && g2 != nil {
		if sinceCheck >= cancelCheckRows {
			sinceCheck = 0
			if err := s.cancelled(); err != nil {
				return err
			}
		}
		t1, t2 := g1[0].Tid, g2[0].Tid
		switch {
		case t1 < t2:
			g1, err = rkG.next()
			sinceCheck++
		case t1 > t2:
			g2, err = joinG.next()
			sinceCheck++
		default:
			scratch = scratch[:0]
			for _, p := range g1 {
				last := p.Key & mask
				base := p.Key << s.dict.bits
				for _, q := range g2 {
					if q.Key > last {
						scratch = append(scratch, prow{Tid: t1, Key: base | q.Key})
					}
				}
			}
			if len(scratch) > 0 {
				if err := app.add(scratch); err != nil {
					return err
				}
				if err := kc.addRows(scratch); err != nil {
					return err
				}
				sinceCheck += len(scratch)
			}
			if g1, err = rkG.next(); err != nil {
				return err
			}
			g2, err = joinG.next()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// filterStreaming keeps the rows of r whose key occurs in ck, preserving
// order, split across W workers by exact row ranges; narrow key spaces
// test membership through a shared read-only bitmap. seedArena lets the
// serial iteration-local call reuse the arena's R_k buffer; callers
// whose output outlives the iteration (the prefiltered join side) must
// pass false so later iterations cannot clobber it.
func (s *execStepper) filterStreaming(r *srel, k int, ck pkCounts, W, capR int, seedArena bool) (*srel, error) {
	bm := buildKeyBitmap(ck.keys, uint(k)*s.dict.bits, s.ar)
	if r.rows() < parallelMinRows {
		W = 1
	}
	parts := splitRows(s.pool, r, W)
	if len(parts) == 0 {
		return &srel{}, nil
	}
	W = len(parts)
	apps := make([]*spillAppender, W)
	stats := make([]spillStats, W)
	errs := make([]error, W)
	for w := 0; w < W; w++ {
		apps[w] = &spillAppender{pool: s.pool, capRows: capR, st: &stats[w]}
	}
	if W == 1 {
		if seedArena {
			apps[0].mem = s.ar.rkBuf[:0]
		}
		errs[0] = filterPart(s.ctx, &parts[0], apps[0], bm, ck.keys)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = filterPart(s.ctx, &parts[w], apps[w], bm, ck.keys)
			}(w)
		}
		wg.Wait()
	}
	segs := make([]sseg, 0, W)
	var firstErr error
	for w := 0; w < W; w++ {
		if errs[w] != nil && firstErr == nil {
			firstErr = errs[w]
		}
	}
	for w := 0; w < W && firstErr == nil; w++ {
		seg, err := apps[w].finishSeg()
		if err != nil {
			firstErr = err
			break
		}
		segs = append(segs, seg)
	}
	for w := 0; w < W; w++ {
		s.st.merge(stats[w])
	}
	if firstErr != nil {
		for i := range segs {
			if segs[i].spilled {
				segs[i].run.Free(s.pool)
			}
		}
		for _, a := range apps {
			a.abort(s.pool)
		}
		return nil, firstErr
	}
	return assembleSrel(segs), nil
}

// filterPart streams one row range of R'_k through the support filter,
// polling ctx (when non-nil) every cancelCheckRows rows.
func filterPart(ctx context.Context, part *groupSrcRows, app *spillAppender, bm []uint64, ckKeys []uint64) error {
	it := part.open()
	defer it.close()
	for n := 0; ; n++ {
		if ctx != nil && n%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		row, ok, err := it.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		keep := false
		if bm != nil {
			keep = bm[row.Key>>6]&(1<<(row.Key&63)) != 0
		} else if len(ckKeys) > 0 {
			_, keep = slices.BinarySearch(ckKeys, row.Key)
		}
		if keep {
			if err := app.add1(row); err != nil {
				return err
			}
		}
	}
}

// countMemStreaming streams the keys of resident rows through
// budget-bounded counters (fanned across workers), producing C_k at
// minSup — the init path's count when the plan is spilled.
func (s *execStepper) countMemStreaming(mem []prow, minSup int64, plan IterPlan) (pkCounts, int64, error) {
	W := plan.Workers
	if len(mem) < parallelMinRows {
		W = 1
	}
	bounds := evenChunks(len(mem), W)
	if len(bounds) == 0 {
		bounds = [][2]int{{0, 0}}
	}
	W = len(bounds)
	capK := s.capKeys(W)
	fanIn := mergeFanIn(s.pool, s.chunk())
	kcs := make([]*keyCounter, W)
	stats := make([]spillStats, W)
	errs := make([]error, W)
	s.ar.workerSlots(W)
	for w := 0; w < W; w++ {
		kcs[w] = &keyCounter{ctx: s.ctx, pool: s.pool, capKeys: capK, fanIn: fanIn, st: &stats[w]}
		kcs[w].keys = s.ar.wKeys[w][:0]
		kcs[w].tmp = s.ar.wTmp[w]
	}
	feed := func(w int, rows []prow) error {
		for i, r := range rows {
			if i%cancelCheckRows == 0 {
				if err := s.cancelled(); err != nil {
					return err
				}
			}
			if err := kcs[w].add(r.Key); err != nil {
				return err
			}
		}
		return nil
	}
	if W == 1 {
		errs[0] = feed(0, mem[bounds[0][0]:bounds[0][1]])
	} else {
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = feed(w, mem[bounds[w][0]:bounds[w][1]])
			}(w)
		}
		wg.Wait()
	}
	for w := 0; w < W; w++ {
		if errs[w] != nil {
			for _, kc := range kcs {
				kc.abort()
			}
			s.mergeWorkerState(kcs, stats, W)
			return pkCounts{}, 0, errs[w]
		}
	}
	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	var ck pkCounts
	var err error
	if W == 1 {
		ck, err = kcs[0].finish(minSup, dst)
	} else {
		ck, err = finishCounters(s.pool, kcs, fanIn, s.mergeWorkers(W, fanIn), minSup, dst)
	}
	skips := s.mergeWorkerState(kcs, stats, W)
	if err != nil {
		return pkCounts{}, 0, err
	}
	s.ck = ck
	return ck, skips, nil
}

// filterMemStreaming filters resident rows by C_k through budget-bounded
// appenders (the init path's PrefilterSales under a spilled plan).
func (s *execStepper) filterMemStreaming(mem []prow, k int, ck pkCounts, plan IterPlan) (*srel, error) {
	return s.filterStreaming(memSrel(mem), k, ck, plan.Workers, s.capRows(max(1, plan.Workers)), false)
}

// spillMemParallel writes resident rows out as tid-aligned runs, one per
// worker, and returns the spilled relation.
func (s *execStepper) spillMemParallel(mem []prow, workers int) (*srel, error) {
	bounds := chunkProwsByTid(mem, workers)
	segs := make([]sseg, len(bounds))
	stats := make([]spillStats, len(bounds))
	errs := make([]error, len(bounds))
	if len(bounds) == 1 {
		run, err := xsort.SpillRows(s.pool, mem)
		if err != nil {
			return nil, err
		}
		s.st.addRun(run)
		return runSrel(run), nil
	}
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func(i int, b [2]int) {
			defer wg.Done()
			run, err := xsort.SpillRows(s.pool, mem[b[0]:b[1]])
			if err != nil {
				errs[i] = err
				return
			}
			stats[i].addRun(run)
			segs[i] = sseg{run: run, spilled: true}
		}(i, b)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			for j := range segs {
				if segs[j].spilled {
					segs[j].run.Free(s.pool)
				}
			}
			return nil, errs[i]
		}
	}
	for i := range stats {
		s.st.merge(stats[i])
	}
	return assembleSrel(segs), nil
}

// stepWideFallback hands the pipeline to the generic kernels when
// patterns outgrow the 64-bit packed key: fully resident state unpacks
// into flat relations (the in-memory drivers' fallback); anything
// touching the pool decodes into heap files and continues on the generic
// paged stepper, its decode I/O charged to the handoff iteration.
func (s *execStepper) stepWideFallback(k int, minSup int64, plan IterPlan) ([]ItemsetCount, iterSizes, error) {
	s.borderLost = true
	if s.pool == nil && s.rk.resident() && s.join.resident() {
		s.fbFlat = &flatStepper{
			d: s.d, opts: s.opts, workers: plan.Workers,
			rk:       unpackRel(s.rk.flatten(), k-1, s.dict),
			joinSide: unpackRel(s.join.flatten(), 1, s.dict),
		}
		s.releasePacked()
		return s.step(k, minSup)
	}
	s.ensurePool()
	convStart := s.pool.Stats.Accesses()
	if err := s.buildPagedFallback(k); err != nil {
		return nil, iterSizes{}, err
	}
	s.convIO = s.pool.Stats.Accesses() - convStart
	return s.step(k, minSup)
}

// buildPagedFallback decodes the live packed relations into heap files
// for the generic paged stepper.
func (s *execStepper) buildPagedFallback(k int) error {
	rkFile, err := s.relToHeap(s.rk, k-1)
	if err != nil {
		return err
	}
	joinFile := rkFile
	if s.join != s.rk {
		if joinFile, err = s.relToHeap(s.join, 1); err != nil {
			return err
		}
	}
	sortMem := 0
	if s.budget > 0 {
		sortMem = int(s.budget)
	}
	s.fbPaged = &pagedStepper{
		d: s.d, opts: s.opts, cfg: s.cfg, pool: s.pool, pres: s.pres,
		sortMem: sortMem, rk: rkFile, joinSide: joinFile,
	}
	if s.rk != s.join {
		s.rk.free(s.pool)
	}
	s.join.free(s.pool)
	if s.sales != nil && s.sales != s.join {
		s.sales.free(s.pool)
	}
	s.releasePacked()
	return nil
}

// relToHeap decodes a packed relation of k-item patterns into a generic
// heap file sorted the same way the packed rows are.
func (s *execStepper) relToHeap(r *srel, k int) (*hp.File, error) {
	names := make([]string, 0, k+1)
	names = append(names, "trans_id")
	for i := 1; i <= k; i++ {
		names = append(names, "item"+strconv.Itoa(i))
	}
	f, err := hp.Create(s.pool, tuple.IntSchema(names...))
	if err != nil {
		return nil, err
	}
	mask := uint64(1)<<s.dict.bits - 1
	it := rowsOf(s.pool, r)
	defer it.close()
	vals := make([]int64, k+1)
	for {
		row, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return f, nil
		}
		vals[0] = int64(row.Tid ^ tidFlip)
		for c := 0; c < k; c++ {
			vals[c+1] = int64(s.dict.items[(row.Key>>(uint(k-1-c)*s.dict.bits))&mask])
		}
		if err := f.Append(tuple.Ints(vals...)); err != nil {
			return nil, err
		}
	}
}

// releasePacked drops the packed state and returns the arena.
func (s *execStepper) releasePacked() {
	s.rk, s.join, s.sales, s.dict = nil, nil, nil, nil
	if s.ar != nil {
		s.ar.release()
		s.ar = nil
	}
}

// release returns the stepper's arena once the pipeline is done.
func (s *execStepper) release() {
	if s.ar != nil {
		s.releasePacked()
	}
}

// writeCheckpoint persists the pipeline-built manifest plus the live
// R_k. Once the wide-pattern fallback owns the iteration the packed
// relation is gone, so there is nothing to checkpoint — (0, nil) tells
// the pipeline to carry on without one (the last packed checkpoint
// remains valid: resume re-mines the fallback iterations from it).
func (s *execStepper) writeCheckpoint(cfg *CheckpointConfig, cp *Checkpoint) (int64, error) {
	if s.fbFlat != nil || s.fbPaged != nil || s.dict == nil || s.rk == nil {
		return 0, nil
	}
	cp.SalesRows = s.salesTotal
	return saveCheckpoint(cfg, cp, s.pool, s.rk)
}

// resume rebuilds the executor as if iteration cp.K had just completed:
// the deterministic state (dictionary, packed SALES, join side) is
// recomputed from the dataset exactly as init would — C_1 taken from
// the manifest instead of recounted — and R_K streams back from the
// checkpoint's run file through a budget-bounded appender, so resuming
// honors the *current* MemoryBudget even if the original run spilled
// differently. Integrity failures wrap ErrCheckpoint; the pipeline's
// fail path aborts the stepper, so nothing leaks.
func (s *execStepper) resume(cp *Checkpoint) (iterSizes, error) {
	total := 0
	for _, tx := range s.d.Transactions {
		total += len(tx.Items)
	}
	if n := len(s.d.Transactions); n > 0 {
		s.avgBasket = float64(total) / float64(n)
	}
	plan := s.nextPlan(1, int64(total), int64(total))
	if plan.Regime == RegimeSpilled {
		s.ensurePool()
	}

	s.ar = newMineArena()
	s.dict = buildDict(s.d, s.ar)
	if cp.K > s.dict.maxPackedK() {
		// Checkpoints are only written while the pattern fits a packed
		// key; a manifest past that width cannot have come from this
		// dataset. (cp.K == maxPackedK is fine: the next step hands the
		// reloaded relation to the wide-pattern fallback as usual.)
		return iterSizes{}, fmt.Errorf("%w: checkpoint k=%d but packed keys end at k=%d", ErrCheckpoint, cp.K, s.dict.maxPackedK())
	}
	mem := packSales(s.d, s.dict, s.ar)
	s.salesTotal = int64(len(mem))
	if cp.SalesRows != s.salesTotal {
		return iterSizes{}, fmt.Errorf("%w: packed SALES has %d rows, manifest says %d", ErrCheckpoint, s.salesTotal, cp.SalesRows)
	}

	// Join side: init's construction with C_1 decoded from the manifest.
	var sales *srel
	var err error
	if s.opts.PrefilterSales {
		for _, c := range cp.Counts[0] {
			if len(c.Items) != 1 || !s.dict.contains(c.Items[0]) {
				return iterSizes{}, fmt.Errorf("%w: C_1 entry %v is not an item of the dataset", ErrCheckpoint, c.Items)
			}
		}
		ck := encodeCounts(cp.Counts[0], s.dict)
		if plan.Regime == RegimeSpilled {
			sales, err = s.filterMemStreaming(mem, 1, ck, plan)
			if err != nil {
				return iterSizes{}, err
			}
		} else {
			s.ar.joinBuf = packedFilter(mem, ck.keys, s.ar.joinBuf[:0])
			sales = memSrel(s.ar.joinBuf)
		}
	} else {
		sales = memSrel(mem)
		if cap := s.capRows(1); plan.Regime == RegimeSpilled && cap > 0 && len(mem) > cap {
			sales, err = s.spillMemParallel(mem, plan.Workers)
			if err != nil {
				return iterSizes{}, err
			}
			s.ar.salesBuf = nil
		}
	}
	s.sales, s.join = sales, sales

	// R_K streams from the checkpoint under the plan the next iteration
	// would run: a spilled plan bounds the reload the same way an
	// appender bounds a live iteration's output.
	planK := s.nextPlan(cp.K+1, cp.RPrimeRows, cp.RRows)
	capR := 0
	if planK.Regime == RegimeSpilled {
		s.ensurePool()
		capR = s.capRows(1)
	}
	app := &spillAppender{pool: s.pool, capRows: capR, st: &s.st}
	if err := readCheckpointRows(cp, func(rows []prow) error {
		if cerr := s.cancelled(); cerr != nil {
			return cerr
		}
		return app.add(rows)
	}); err != nil {
		app.abort(s.pool)
		return iterSizes{}, err
	}
	rk, err := app.finish()
	if err != nil {
		return iterSizes{}, err
	}
	s.rk = rk
	if rk.rows() != cp.RRows {
		return iterSizes{}, fmt.Errorf("%w: reloaded %d rows, manifest says %d", ErrCheckpoint, rk.rows(), cp.RRows)
	}
	s.prevRPrime, s.prevRRows = cp.RPrimeRows, cp.RRows
	return iterSizes{rPrime: cp.RPrimeRows, rRows: rk.rows(), plan: planK}, nil
}

// encodeCounts re-packs a decoded single-item count relation into the
// sorted key form the filter kernels take. Code order equals item order
// (the dictionary is order-preserving), so the lexicographic input
// order carries over to the keys.
func encodeCounts(ck []ItemsetCount, dict *packDict) pkCounts {
	keys := make([]uint64, len(ck))
	counts := make([]int64, len(ck))
	for i, c := range ck {
		var key uint64
		for _, it := range c.Items {
			key = key<<dict.bits | dict.code(it)
		}
		keys[i] = key
		counts[i] = c.Count
	}
	return pkCounts{keys: keys, counts: counts}
}
