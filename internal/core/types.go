// Package core implements Algorithm SETM from Houtsma & Swami, "Set-
// Oriented Mining for Association Rules in Relational Databases" (ICDE
// 1995): frequent-pattern mining by repeated sorting and merge-scan joins
// over the per-transaction pattern relations R_k.
//
// Three drivers compute identical count relations C_k:
//
//   - MineMemory: the in-memory fast path ("we implemented the algorithm to
//     run in main memory and read a file of transactions", Section 6).
//   - MinePaged: the same loop over the paged storage substrate (heap
//     files, external sort, merge-scan join operators), with page-I/O
//     accounting matching the Section 4.3 analysis.
//   - MineSQL: the paper's SQL formulation (Section 4.1) executed verbatim
//     by the relational engine.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Item identifies a sellable item. The paper represents items as 4-byte
// integers; we widen to 64 bits.
type Item = int64

// Transaction is one customer transaction: an identifier and the items
// purchased. Items need not be sorted or unique; miners normalize.
type Transaction struct {
	ID    int64
	Items []Item
}

// Dataset is an ordered collection of transactions.
type Dataset struct {
	Transactions []Transaction

	salesOnce sync.Once
	salesRows [][2]int64
}

// NumTransactions returns the number of customer transactions, the
// denominator of the support ratio.
func (d *Dataset) NumTransactions() int { return len(d.Transactions) }

// SalesRows converts the dataset to the SALES(trans_id, item) tuple format,
// deduplicating items within a transaction and sorting rows by
// (trans_id, item) — the normalized relation the paper stores.
// The result is computed once and cached; callers must not mutate it (or
// d.Transactions afterwards).
func (d *Dataset) SalesRows() [][2]int64 {
	d.salesOnce.Do(func() { d.salesRows = d.buildSalesRows() })
	return d.salesRows
}

func (d *Dataset) buildSalesRows() [][2]int64 {
	var rows [][2]int64
	for _, tx := range d.Transactions {
		seen := make(map[Item]bool, len(tx.Items))
		for _, it := range tx.Items {
			if !seen[it] {
				seen[it] = true
				rows = append(rows, [2]int64{tx.ID, it})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][0] != rows[j][0] {
			return rows[i][0] < rows[j][0]
		}
		return rows[i][1] < rows[j][1]
	})
	return rows
}

// NumSalesRows returns |R_1|: the number of (trans_id, item) tuples.
func (d *Dataset) NumSalesRows() int { return len(d.SalesRows()) }

// Options configures a mining run.
type Options struct {
	// MinSupportCount is the absolute minimum number of supporting
	// transactions. If zero, MinSupportFrac applies.
	MinSupportCount int64
	// MinSupportFrac is the minimum support as a fraction of the number of
	// transactions (e.g. 0.005 for 0.5%). Ignored when MinSupportCount > 0.
	MinSupportFrac float64
	// MaxPatternLen stops the loop after patterns of this length (0 = run
	// until R_k is empty, the paper's termination condition).
	MaxPatternLen int
	// PrefilterSales joins R_{k-1} with a SALES relation restricted to
	// frequent items instead of the full one. The paper's Figure 4 joins
	// with the unfiltered R_1 (Section 6.1); this flag is the ablation
	// BenchmarkAblationPrefilter measures.
	PrefilterSales bool
	// DisablePackedKernels makes the memory, parallel, and partitioned
	// drivers run on the generic int64 relation kernels instead of the
	// packed-key engine (see pack.go). Results are bit-identical; the
	// generic path exists as the wide-pattern fallback, the conformance
	// oracle, and a benchmark ablation.
	DisablePackedKernels bool
	// MemoryBudget bounds the mining working set in bytes for the drivers
	// that can trade memory for page I/O. MinePaged keeps an iteration's
	// packed relations in RAM while they fit and transparently streams
	// them through the buffer pool as sorted packed-page runs once they
	// exceed the budget; MinePartitioned spills the per-shard count
	// exchange lists the same way; MineAuto plans each iteration's
	// regime against it. Zero selects the driver default (MinePaged:
	// PoolFrames × the 4 KB page size; MineAuto and the in-memory
	// drivers: unbounded); negative means explicitly unbounded, pinning
	// even the paged driver's relations in RAM.
	MemoryBudget int64
	// Strategy selects how the driver picks each iteration's execution
	// plan. StrategyDefault keeps every driver's fixed plan (the driver
	// name is the contract); StrategyAuto makes MinePaged consult the
	// cost model per iteration the way MineAuto does — kernel, regime,
	// and parallelism chosen from observed cardinalities. The other
	// drivers ignore it.
	Strategy Strategy
	// MaxWorkers caps the adaptive executor's parallelism (MineAuto and
	// StrategyAuto plans). Zero means GOMAXPROCS.
	MaxWorkers int
	// Checkpoint, when non-nil, makes the adaptive executor persist a
	// resumable manifest (k, C_1..C_k, R_k as a packed run file) into
	// CheckpointConfig.Dir at iteration boundaries. A crashed run then
	// restarts from the last manifest via MineAutoResume instead of
	// re-mining from scratch, with bit-identical results. Nil disables
	// checkpointing (the default; it costs one sequential write of R_k
	// per covered iteration, which the cost model charges to the plan).
	// A pointer so Options stays comparable — cache keys and
	// CanonicalOptions depend on that; CanonicalOptions zeroes it.
	Checkpoint *CheckpointConfig
	// RetainBorder makes the adaptive executor keep the negative border
	// (the candidate patterns counted below minsup) per iteration and
	// attach a BorderSnapshot to the Result. The snapshot is what
	// MineDelta folds transaction appends into; see border.go. Costs
	// the memory of the sub-minsup count runs — bounded by the distinct
	// candidates per iteration — and nothing on the counting itself.
	// Does not affect Counts; CanonicalOptions zeroes it.
	RetainBorder bool
}

// Strategy selects between a driver's fixed execution plan and the
// cost-model-driven adaptive executor.
type Strategy int

const (
	// StrategyDefault keeps the driver's fixed plan.
	StrategyDefault Strategy = iota
	// StrategyAuto plans every iteration from observed cardinalities.
	StrategyAuto
)

// ResolveMinSupport computes the absolute support threshold for n
// transactions; the result is at least 1.
func (o Options) ResolveMinSupport(n int) int64 {
	ms := o.MinSupportCount
	if ms <= 0 {
		ms = int64(o.MinSupportFrac * float64(n))
	}
	if ms < 1 {
		ms = 1
	}
	return ms
}

// CanonicalOptions reduces o, for a dataset of n transactions, to the
// fields that determine the mining *result*: the resolved absolute
// support threshold and the pattern-length cap. Every execution knob —
// strategy, kernels, memory budget, workers, prefiltering — is zeroed,
// because the drivers are conformance-pinned to bit-identical Counts
// regardless of plan. Two option sets with equal canonical forms
// therefore yield the same Result.Counts, which is exactly the cache
// key a mining service needs.
func CanonicalOptions(o Options, n int) Options {
	return Options{
		MinSupportCount: o.ResolveMinSupport(n),
		MaxPatternLen:   o.MaxPatternLen,
	}
}

// ItemsetCount is one row of a count relation C_k: a lexicographically
// ordered pattern and the number of transactions supporting it.
type ItemsetCount struct {
	Items []Item
	Count int64
}

// IterationStat records the relation sizes of one SETM iteration, the
// quantities plotted in Figures 5 and 6 of the paper.
type IterationStat struct {
	K int // pattern length of this iteration

	// RPrimeRows is |R'_k|: candidate rows before the support filter.
	RPrimeRows int64
	// RRows is |R_k|: rows surviving the support filter.
	RRows int64
	// RPaperBytes is the Figure 5 quantity: |R_k| tuples × (k+1) fields ×
	// 4 bytes (the paper's storage model).
	RPaperBytes int64
	// CCount is |C_k|, the Figure 6 quantity.
	CCount int
	// SortsSkipped counts the paper-mandated sorts of this iteration that
	// the engine proved unnecessary — the input was already ordered (or
	// provably order-preserving), so the sortedness fast path skipped the
	// sort while keeping the paper-faithful call sites. A count taken by
	// histogram over the key domain, which needs no sorted key column,
	// counts as a skipped sort too.
	SortsSkipped int64
	// RunsSpilled counts the sorted packed-page runs this iteration wrote
	// through the buffer pool because a relation, key column, or count
	// exchange outgrew Options.MemoryBudget. Zero when the iteration ran
	// entirely in RAM.
	RunsSpilled int64
	// SpillBytes is the payload written into those runs.
	SpillBytes int64
	// CheckpointBytes is the number of bytes this iteration's durable
	// checkpoint (R_k run file plus manifest) wrote, zero when the
	// iteration was not checkpointed (no Options.Checkpoint, an interval
	// miss, or the wide-pattern fallback).
	CheckpointBytes int64
	// PageIO is the iteration's physical page accesses (reads + writes)
	// through the buffer pool — the per-iteration slice of the quantity
	// the Section 4.3 formula bounds. Zero for the in-memory drivers.
	PageIO int64
	// Plan is the strategy IR the executor committed to for this
	// iteration — which kernel ran, whether the relations were
	// budget-bounded, and at what fan-out — so benchmarks and
	// EXPLAIN-style output show why the pass ran the way it did. Fixed
	// drivers (including the SQL driver, which reports Kernel "sql")
	// record their constant plan every iteration.
	Plan IterPlan
	// Duration is the wall-clock time of the iteration.
	Duration time.Duration
}

// Result is the outcome of a mining run.
type Result struct {
	// Counts[k-1] holds C_k. Counts[0] is always present; later entries
	// exist through the last non-empty C_k.
	Counts [][]ItemsetCount
	// Stats[k-1] describes iteration k. Stats[0] covers the initial scan
	// that builds R_1 and C_1.
	Stats []IterationStat
	// NumTransactions is the dataset size used for support ratios.
	NumTransactions int
	// MinSupport is the resolved absolute threshold.
	MinSupport int64
	// Elapsed is the total mining time.
	Elapsed time.Duration
	// Border is the retained negative-border snapshot when the run was
	// mined with Options.RetainBorder on a substrate that supports it
	// (the packed adaptive executor); nil otherwise. Excluded from JSON:
	// it is service-internal state, persisted separately via SaveBorder.
	Border *BorderSnapshot `json:"-"`
}

// C returns the count relation C_k (1-based), or nil if the run ended
// before k.
func (r *Result) C(k int) []ItemsetCount {
	if k < 1 || k > len(r.Counts) {
		return nil
	}
	return r.Counts[k-1]
}

// MaxLen returns the length of the longest frequent pattern found.
func (r *Result) MaxLen() int {
	for k := len(r.Counts); k >= 1; k-- {
		if len(r.Counts[k-1]) > 0 {
			return k
		}
	}
	return 0
}

// TotalPatterns counts all frequent patterns across lengths.
func (r *Result) TotalPatterns() int {
	n := 0
	for _, c := range r.Counts {
		n += len(c)
	}
	return n
}

// Support returns the count of the given pattern (items must be sorted), or
// 0 if it is not frequent.
func (r *Result) Support(items []Item) int64 {
	ck := r.C(len(items))
	lo := searchCounts(ck, items)
	if lo < len(ck) && compareItems(ck[lo].Items, items) == 0 {
		return ck[lo].Count
	}
	return 0
}

// searchCounts returns the position of the first pattern in ck not less
// than items — the lower bound in a lexicographically sorted count
// relation.
func searchCounts(ck []ItemsetCount, items []Item) int {
	lo, hi := 0, len(ck)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareItems(ck[mid].Items, items) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func compareItems(a, b []Item) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// validate checks option sanity against the dataset.
func validate(d *Dataset, o Options) error {
	if d == nil || len(d.Transactions) == 0 {
		return fmt.Errorf("setm: empty dataset")
	}
	if o.MinSupportCount <= 0 && o.MinSupportFrac <= 0 {
		return fmt.Errorf("setm: no minimum support given (set MinSupportCount or MinSupportFrac)")
	}
	if o.MinSupportFrac > 1 {
		return fmt.Errorf("setm: MinSupportFrac %v exceeds 1", o.MinSupportFrac)
	}
	return nil
}

// paperTupleBytes is the paper's storage model: 4 bytes per field, k+1
// fields for an R_k tuple (trans_id plus k items).
func paperTupleBytes(k int) int64 { return int64(k+1) * 4 }
