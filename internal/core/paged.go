package core

import (
	"io"

	"setm/internal/exec"
	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
	"setm/internal/xsort"
)

// PagedConfig tunes the paged driver's substrate.
type PagedConfig struct {
	// PoolFrames is the buffer-pool capacity in 4 KB frames (default 256 —
	// SETM's access pattern is sequential, so small pools suffice).
	PoolFrames int
	// Options.MemoryBudget is the one memory knob for the paged driver;
	// the generic tuple substrate's external-sort runs and the packed
	// path's spill buffers both derive from it. (A deprecated
	// SortMemLimit field used to bound the tuple sorts separately; it
	// was removed once both substrates honoured the shared budget.)

	// Store supplies the page store (default: a fresh in-memory store).
	// Pass a storage.FileStore to run against a real file, or a
	// storage.FaultStore in failure-injection tests.
	Store storage.Store
	// UseHashJoin replaces the merge-scan extension join with an in-memory
	// hash join (an ablation: it drops the sort before the join but must
	// hold one join side in memory, surrendering the bounded-memory
	// property the paper's formulation has).
	UseHashJoin bool
	// UseHashGroup replaces the sort + sequential count scan with hash
	// aggregation when generating C_k.
	UseHashGroup bool
}

func (c PagedConfig) withDefaults() PagedConfig {
	if c.PoolFrames <= 0 {
		c.PoolFrames = 256
	}
	return c
}

// PagedResult bundles a mining result with the storage-layer accounting
// that the paper's Section 4.3 formula bounds.
type PagedResult struct {
	*Result
	// IO is the buffer pool's page-access tally for the whole run.
	IO storage.Stats
	// RPages[k-1] is ‖R_k‖, the page footprint of each stored R_k (after
	// the support filter).
	RPages []int
	// RPrimePages[k-1] is ‖R'_k‖, the footprint of the unfiltered
	// candidate relation — the quantity the Section 4.3 worst-case model
	// describes. RPrimePages[0] equals RPages[0] (R_1 has no R').
	RPrimePages []int
}

// MinePaged runs Algorithm SETM on the paged substrate with a bounded
// memory working set: the adaptive executor with a positive budget
// engaging the spillable-relation machinery (spill.go). An iteration
// whose packed footprint fits Options.MemoryBudget runs entirely in RAM;
// past the budget its relations stream through the buffer pool as raw
// packed-page runs — bounded radix runs plus a cascaded k-way merge for
// the count sort, sequential runs for everything else. A zero budget
// defaults to PoolFrames × the page size (the pool's own capacity); a
// negative budget pins everything in RAM. The driver's fixed plan is
// serial; Options.Strategy = StrategyAuto lets the cost model choose
// regime and parallelism per iteration instead (MineAuto with the paged
// driver's budget default and page store). The generic tuple substrate
// (heap files, external merge sort, exec.MergeJoin) remains behind
// Options.DisablePackedKernels, the hash ablations, and the
// wide-pattern fallback. The returned IO stats let experiments check
// the Section 4.3 bound
//
//	(n-1)·‖R_1‖ + Σ‖R'_i‖ + 2·Σ‖R_i‖
func MinePaged(d *Dataset, opts Options, cfg PagedConfig) (*PagedResult, error) {
	cfg = cfg.withDefaults()
	budget := opts.MemoryBudget
	if budget == 0 {
		budget = int64(cfg.PoolFrames) * storage.PageSize
	}
	store := cfg.Store
	if store == nil {
		store = storage.NewMemStore()
	}
	pool := storage.NewPool(store, cfg.PoolFrames)
	pres := &PagedResult{}
	var st stepper
	if opts.DisablePackedKernels || cfg.UseHashJoin || cfg.UseHashGroup {
		// The hash ablations are defined on the generic operator substrate.
		sortMem := 0
		if budget > 0 {
			sortMem = int(budget)
		}
		st = &pagedStepper{d: d, opts: opts, cfg: cfg, pool: pool, pres: pres, sortMem: sortMem}
	} else {
		opts.MemoryBudget = budget // resolved: the executor takes it as-is
		strat := fixedStrategy(1, true)
		if opts.Strategy == StrategyAuto {
			strat = autoStrategy()
		}
		es := newExecStepper(d, opts, cfg, pres, strat)
		es.attachPool(pool)
		st = es
	}
	res, err := runPipeline(d, opts, st)
	if err != nil {
		return nil, err
	}
	pres.Result = res
	pres.IO = pool.Stats
	return pres, nil
}

// pagedStepper is the generic paged-storage substrate of the SETM
// pipeline: R_k relations are heap files and every relational step runs
// through the storage and operator layers, with page-I/O accounting on
// the side. It serves the hash ablations, the DisablePackedKernels
// oracle, and the executor's wide-pattern fallback.
type pagedStepper struct {
	d       *Dataset
	opts    Options
	cfg     PagedConfig
	pool    *storage.Pool
	pres    *PagedResult
	sortMem int // external-sort run bound in bytes (from the budget)

	rk       *hp.File // R_{k-1}
	joinSide *hp.File // R_1 side of the merge-scan join
}

func (s *pagedStepper) init(minSup int64) ([]ItemsetCount, iterSizes, error) {
	ioStart := s.pool.Stats.Accesses()
	// R_1 = SALES(trans_id, item), sorted by (trans_id, item).
	salesSchema := tuple.IntSchema("trans_id", "item")
	sales, err := hp.Create(s.pool, salesSchema)
	if err != nil {
		return nil, iterSizes{}, err
	}
	for _, r := range s.d.SalesRows() {
		if err := sales.Append(tuple.Ints(r[0], r[1])); err != nil {
			return nil, iterSizes{}, err
		}
	}

	// C_1: sort R_1 on item, sequential count scan (or hash aggregation
	// under the ablation flag).
	c1, err := countRelation(s.pool, sales, []int{1}, minSup, s.cfg, s.sortMem)
	if err != nil {
		return nil, iterSizes{}, err
	}

	s.rk = sales
	s.joinSide = sales
	if s.opts.PrefilterSales {
		if s.rk, err = filterFile(s.pool, sales, 1, c1); err != nil {
			return nil, iterSizes{}, err
		}
		s.joinSide = s.rk
	}
	s.pres.RPages = append(s.pres.RPages, s.rk.Pages())
	s.pres.RPrimePages = append(s.pres.RPrimePages, s.rk.Pages())
	sz := iterSizes{rPrime: sales.Rows(), rRows: s.rk.Rows(), plan: s.plan()}
	sz.pageIO = s.pool.Stats.Accesses() - ioStart
	return c1, sz, nil
}

// plan is the fixed strategy IR of the generic paged substrate.
func (s *pagedStepper) plan() IterPlan {
	return IterPlan{Kernel: KernelGeneric, Regime: RegimeSpilled, Workers: 1, Exchange: ExchangeNone}
}

func (s *pagedStepper) step(k int, minSup int64) ([]ItemsetCount, iterSizes, error) {
	ioStart := s.pool.Stats.Accesses()
	// R'_k := join(R_{k-1}, R_1) on trans_id with the lexicographic
	// residual q.item > p.item_{k-1}, projecting away R_1's trans_id.
	// Default: sort R_{k-1} on (trans_id, items) and merge-scan, as in
	// Figure 4. Ablation: hash join, which skips the sort but builds
	// R_1 in memory.
	lastItem := k - 1 // index of item_{k-1} in the left tuple
	residual := func(l, r tuple.Tuple) (bool, error) {
		return r[1].Int > l[lastItem].Int, nil
	}
	var join exec.Operator
	if s.cfg.UseHashJoin {
		join = exec.NewHashJoin(
			exec.NewHeapScan(s.rk), exec.NewHeapScan(s.joinSide),
			[]int{0}, []int{0}, residual)
	} else {
		allCols := make([]int, k) // 0..k-1: trans_id plus k-1 items
		for i := range allCols {
			allCols[i] = i
		}
		sorted, err := xsort.File(s.pool, s.rk, xsort.ByColumns(allCols...), s.sortMem)
		if err != nil {
			return nil, iterSizes{}, err
		}
		mj := exec.NewMergeJoin(
			exec.NewHeapScan(sorted), exec.NewHeapScan(s.joinSide),
			[]int{0}, []int{0}, nil)
		// The lexicographic extension condition runs on column vectors.
		mj.SetVecResidualGT(lastItem, 1)
		join = mj
	}
	// Left tuple has k columns (tid, k-1 items); right adds (tid, item).
	projIdx := make([]int, 0, k+1)
	for i := 0; i < k; i++ {
		projIdx = append(projIdx, i)
	}
	projIdx = append(projIdx, k+1) // q.item
	proj := exec.NewColumnProject(join, projIdx)
	rPrime, err := exec.Materialize(s.pool, proj)
	if err != nil {
		return nil, iterSizes{}, err
	}

	// sort R'_k on items; C_k := counts (or hash aggregation).
	itemCols := make([]int, k)
	for i := range itemCols {
		itemCols[i] = i + 1
	}
	ck, err := countRelation(s.pool, rPrime, itemCols, minSup, s.cfg, s.sortMem)
	if err != nil {
		return nil, iterSizes{}, err
	}

	// R_k := filter R'_k to supported patterns, sorted on
	// (trans_id, items) for the next merge-scan.
	if s.rk, err = filterFile(s.pool, rPrime, k, ck); err != nil {
		return nil, iterSizes{}, err
	}
	s.pres.RPages = append(s.pres.RPages, s.rk.Pages())
	s.pres.RPrimePages = append(s.pres.RPrimePages, rPrime.Pages())
	sz := iterSizes{rPrime: rPrime.Rows(), rRows: s.rk.Rows(), plan: s.plan()}
	sz.pageIO = s.pool.Stats.Accesses() - ioStart
	return ck, sz, nil
}

// countRelation produces C_k from an (unsorted) relation: the paper's way
// is sort-on-items plus a sequential count scan; the hash ablation uses
// hash aggregation and sorts only the (small) result. sortMem bounds the
// external sort's run size (from the resolved memory budget).
func countRelation(pool *storage.Pool, f *hp.File, itemCols []int, minSup int64, cfg PagedConfig, sortMem int) ([]ItemsetCount, error) {
	if cfg.UseHashGroup {
		grp := exec.NewHashGroup(exec.NewHeapScan(f), itemCols,
			[]exec.AggSpec{{Kind: exec.AggCount, Name: "cnt"}})
		rows, err := exec.Drain(grp)
		if err != nil {
			return nil, err
		}
		var out []ItemsetCount
		for _, r := range rows {
			n := r[len(r)-1].Int
			if n < minSup {
				continue
			}
			items := make([]Item, len(itemCols))
			for i := range itemCols {
				items[i] = r[i].Int
			}
			out = append(out, ItemsetCount{Items: items, Count: n})
		}
		// C_k is canonically ordered; hash output is not.
		xsortCounts(out)
		return out, nil
	}
	byItems, err := xsort.File(pool, f, xsort.ByColumns(itemCols...), sortMem)
	if err != nil {
		return nil, err
	}
	return countFile(byItems, itemCols, minSup)
}

// xsortCounts orders an ItemsetCount slice lexicographically.
func xsortCounts(cs []ItemsetCount) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && compareItems(cs[j].Items, cs[j-1].Items) < 0; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// countFile scans a heap file sorted on itemCols and returns the patterns
// with at least minSup occurrences — the paper's "simple sequential scan".
func countFile(f *hp.File, itemCols []int, minSup int64) ([]ItemsetCount, error) {
	sc := f.Scan()
	defer sc.Close()
	var out []ItemsetCount
	var cur []Item
	var n int64
	flush := func() {
		if cur != nil && n >= minSup {
			out = append(out, ItemsetCount{Items: cur, Count: n})
		}
	}
	for {
		t, err := sc.Next()
		if err == io.EOF {
			flush()
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		items := make([]Item, len(itemCols))
		for i, c := range itemCols {
			items[i] = t[c].Int
		}
		if cur != nil && compareItems(cur, items) == 0 {
			n++
			continue
		}
		flush()
		cur, n = items, 1
	}
}

// filterFile keeps rows of R'_k whose item columns form a supported
// pattern, writing them sorted by (trans_id, items).
func filterFile(pool *storage.Pool, rPrime *hp.File, k int, ck []ItemsetCount) (*hp.File, error) {
	supported := make(map[string]bool, len(ck))
	var buf []byte
	encode := func(items []Item) string {
		buf = buf[:0]
		for _, it := range items {
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(it>>s))
			}
		}
		return string(buf)
	}
	for _, c := range ck {
		supported[encode(c.Items)] = true
	}
	filtered := exec.NewFilter(exec.NewHeapScan(rPrime), func(t tuple.Tuple) (bool, error) {
		items := make([]Item, k)
		for i := 0; i < k; i++ {
			items[i] = t[i+1].Int
		}
		return supported[encode(items)], nil
	})
	allCols := make([]int, k+1)
	for i := range allCols {
		allCols[i] = i
	}
	sorted := exec.NewSort(filtered, xsort.ByColumns(allCols...), pool, 0)
	return exec.Materialize(pool, sorted)
}
