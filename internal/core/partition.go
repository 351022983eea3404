package core

import (
	"runtime"
	"sync"

	"setm/internal/costmodel"
	"setm/internal/storage"
	"setm/internal/xsort"
)

// MinePartitioned runs Algorithm SETM with the dataset hash-sharded into
// independent partitions — the sharding stepping-stone toward distributed
// SETM. Transactions are assigned to shards by a hash of their trans_id,
// so every R_k row of a transaction lives in exactly one shard. Each
// shard runs the pipeline's relational kernels over purely local state;
// the only cross-shard communication is the per-iteration count merge
// ("count distribution"): shards produce unfiltered local candidate
// counts, a global second pass sums them and applies the support
// threshold, and each shard then filters its local R'_k by the global
// C_k. On the default packed-key substrate the exchanged counts are
// packed flat (key, count) lists — one word per pattern — merged by
// integer comparison. Because transactions are disjoint across shards,
// the merged counts equal the serial driver's exactly and the results
// are bit-identical to MineMemory (the conformance suite enforces it).
//
// shards <= 0 selects GOMAXPROCS.
func MinePartitioned(d *Dataset, opts Options, shards int) (*Result, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return runPipeline(d, opts, &partitionStepper{d: d, opts: opts, nshards: shards})
}

// partitionStepper is the sharded substrate of the SETM pipeline.
type partitionStepper struct {
	d       *Dataset
	opts    Options
	nshards int
	shards  []*partitionShard

	// Packed-key state: a single global dictionary shared by every shard
	// (codes must agree for the count merge), the arena backing it, and
	// the merged C_k buffer with its filter bitmap.
	dict   *packDict
	dictAr *mineArena
	packed bool
	ck     pkCounts

	// Exchange spill state: when Options.MemoryBudget caps the working
	// set and the shards' candidate count lists collectively outgrow it,
	// each shard's (key, count) list is written as a packed run and the
	// global merge streams over the runs instead of holding every list in
	// RAM — the same substrate MinePaged spills relations through.
	exPool *storage.Pool
	exStat spillStats
	exIO   int64
}

// partitionShard holds one shard's local relations — packed by default,
// generic flat relations under DisablePackedKernels or after the
// wide-pattern fallback.
type partitionShard struct {
	// Generic substrate.
	sales  relation // local R_1, sorted by (trans_id, item)
	rk     relation // local R_{k-1}
	join   relation // local R_1 side of the merge-scan join
	rPrime relation // local R'_k of the current iteration

	// Packed substrate.
	psales []prow     // local packed R_1
	prk    []prow     // local packed R_{k-1}
	pjoin  []prow     // local packed join side
	pext   []prow     // local packed R'_k of the current iteration
	ar     *mineArena // scratch buffers; ar.ck holds the local unfiltered
	//                  candidate counts exchanged with the global merge
	skips int64 // local sort-skip tally of the current iteration
}

// shardOf maps a transaction ID to its shard with a splitmix64-style
// finalizer, so consecutive IDs spread evenly.
func shardOf(id int64, n int) int {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// forEachShard runs fn for every shard concurrently and waits.
func (s *partitionStepper) forEachShard(fn func(sh *partitionShard)) {
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *partitionShard) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	wg.Wait()
}

func (s *partitionStepper) init(minSup int64) ([]ItemsetCount, iterSizes, error) {
	// Hash-shard the transactions. Rows of one transaction must co-locate,
	// so the hash key is the trans_id.
	groups := make([][]Transaction, s.nshards)
	for _, tx := range s.d.Transactions {
		i := shardOf(tx.ID, s.nshards)
		groups[i] = append(groups[i], tx)
	}
	s.shards = make([]*partitionShard, s.nshards)
	for i := range s.shards {
		s.shards[i] = &partitionShard{}
	}
	s.packed = !s.opts.DisablePackedKernels
	if s.packed {
		s.dictAr = newMineArena()
		s.dict = buildDict(s.d, s.dictAr)
	}

	var c1 []ItemsetCount
	var skips int64
	if s.packed {
		// Local pass: build each shard's packed R_1 and its unfiltered
		// item counts from the shared dictionary.
		var wg sync.WaitGroup
		for i, sh := range s.shards {
			wg.Add(1)
			go func(i int, sh *partitionShard) {
				defer wg.Done()
				sh.ar = newMineArena()
				sh.psales = packSales(&Dataset{Transactions: groups[i]}, s.dict, sh.ar)
				sh.countLocal(sh.psales, uint64(len(s.dict.items)))
			}(i, sh)
		}
		wg.Wait()

		// Global pass: merge the packed shard counts at the threshold.
		ck, err := s.mergeShardCounts(minSup)
		if err != nil {
			return nil, iterSizes{}, err
		}
		c1 = decodePatterns(ck, 1, s.dict)

		s.forEachShard(func(sh *partitionShard) {
			sh.prk = sh.psales
			sh.pjoin = sh.psales
			if s.opts.PrefilterSales {
				sh.prk = packedFilter(sh.psales, ck.keys, nil)
				sh.pjoin = sh.prk
			}
		})
		for _, sh := range s.shards {
			skips += sh.skips
		}
	} else {
		// Local pass: build each shard's R_1 and its unfiltered counts on
		// the generic substrate.
		counts := make([][]int64, s.nshards)
		var wg sync.WaitGroup
		for i, sh := range s.shards {
			wg.Add(1)
			go func(i int, sh *partitionShard) {
				defer wg.Done()
				sh.sales = salesRelation(&Dataset{Transactions: groups[i]})
				byItem := sh.sales.clone()
				if sortRelation(byItem, 1) {
					sh.skips++
				}
				counts[i] = flatCountRuns(byItem, nil)
			}(i, sh)
		}
		wg.Wait()

		c1 = mergeFlatCounts(counts, 1, minSup)

		s.forEachShard(func(sh *partitionShard) {
			sh.rk = sh.sales
			sh.join = sh.sales
			if s.opts.PrefilterSales {
				var fs int64
				sh.rk, fs = filterRelation(sh.sales, c1)
				sh.skips += fs
				sh.join = sh.rk
			}
		})
		for _, sh := range s.shards {
			skips += sh.skips
		}
	}

	var salesRows, rkRows int64
	for _, sh := range s.shards {
		if s.packed {
			salesRows += int64(len(sh.psales))
			rkRows += int64(len(sh.prk))
		} else {
			salesRows += int64(sh.sales.rows())
			rkRows += int64(sh.rk.rows())
		}
	}
	sz := iterSizes{rPrime: salesRows, rRows: rkRows, sortSkips: skips, plan: s.plan()}
	s.takeExchangeStats(&sz)
	return c1, sz, nil
}

// plan is the partitioned driver's fixed strategy IR: the sharded
// count-distribution exchange, one worker per shard, relations resident
// (only the exchange lists spill past the budget).
func (s *partitionStepper) plan() IterPlan {
	p := IterPlan{Kernel: KernelPacked, Regime: RegimeResident, Workers: s.nshards, Exchange: ExchangeSharded}
	if !s.packed {
		p.Kernel = KernelGeneric
	}
	return p
}

// takeExchangeStats moves the accumulated exchange spill accounting into
// the iteration's sizes.
func (s *partitionStepper) takeExchangeStats(sz *iterSizes) {
	sz.runsSpilled += s.exStat.runs
	sz.spillBytes += s.exStat.bytes
	sz.pageIO += s.exIO
	s.exStat = spillStats{}
	s.exIO = 0
}

func (s *partitionStepper) step(k int, minSup int64) ([]ItemsetCount, iterSizes, error) {
	if s.packed && k > s.dict.maxPackedK() {
		// Patterns no longer fit one key: every shard unpacks its live
		// relations, returns its arena, and the loop continues on the
		// generic kernels.
		s.forEachShard(func(sh *partitionShard) {
			sh.rk = unpackRel(sh.prk, k-1, s.dict)
			sh.join = unpackRel(sh.pjoin, 1, s.dict)
			sh.psales, sh.prk, sh.pjoin, sh.pext = nil, nil, nil, nil
			sh.ar.release()
			sh.ar = nil
		})
		s.dict = nil
		s.dictAr.release()
		s.dictAr = nil
		s.packed = false
	}
	if s.packed {
		return s.stepPacked(k, minSup)
	}
	return s.stepGeneric(k, minSup)
}

// stepPacked runs one sharded iteration on the packed-key substrate:
// shards extend and count locally, exchange packed flat counts, and
// filter by the merged C_k.
func (s *partitionStepper) stepPacked(k int, minSup int64) ([]ItemsetCount, iterSizes, error) {
	// Local pass: sort (skipped — packSales and the filter emit rows in
	// (trans_id, items) order), extend, and count candidates without any
	// support filter — a locally rare pattern may be globally frequent.
	s.forEachShard(func(sh *partitionShard) {
		sh.skips = 1
		sh.pext = packedExtend(sh.prk, sh.pjoin, s.dict.bits, sh.ar.ext[:0])
		sh.ar.ext = sh.pext
		sh.countLocal(sh.pext, s.dict.keyDomain(k))
	})

	// Global pass: merge the packed shard counts into C_k.
	ck, err := s.mergeShardCounts(minSup)
	if err != nil {
		return nil, iterSizes{}, err
	}
	cOut := decodePatterns(ck, k, s.dict)

	// Local pass: filter each shard's R'_k by the global C_k — shards
	// share one read-only membership bitmap when the key space is narrow.
	// Survivors keep (trans_id, items) order, so the re-sort is skipped.
	bm := buildKeyBitmap(ck.keys, uint(k)*s.dict.bits, s.dictAr)
	s.forEachShard(func(sh *partitionShard) {
		if bm != nil && len(ck.keys) > 0 {
			sh.prk = packedFilterBitmap(sh.pext, bm, sh.ar.rkBuf[:0])
		} else {
			sh.prk = packedFilter(sh.pext, ck.keys, sh.ar.rkBuf[:0])
		}
		sh.ar.rkBuf = sh.prk
		sh.skips++
	})

	var rPrimeRows, rkRows, skips int64
	for _, sh := range s.shards {
		rPrimeRows += int64(len(sh.pext))
		rkRows += int64(len(sh.prk))
		skips += sh.skips
	}
	sz := iterSizes{rPrime: rPrimeRows, rRows: rkRows, sortSkips: skips, plan: s.plan()}
	s.takeExchangeStats(&sz)
	return cOut, sz, nil
}

// countLocal counts a shard's rows without a threshold into the
// shard's exchange buffer (ar.ck), reusing its arena (see countRows).
func (sh *partitionShard) countLocal(rows []prow, domain uint64) {
	sh.ar.ck = countRows(rows, domain, 1, sh.ar, pkCounts{keys: sh.ar.ck.keys[:0], counts: sh.ar.ck.counts[:0]}, &sh.skips)
}

// mergeShardCounts merges every shard's packed count list into the
// stepper's reused C_k buffer at the given threshold. When the lists
// collectively exceed Options.MemoryBudget they are exchanged as packed
// (key, count) runs through a buffer pool and merged streaming.
func (s *partitionStepper) mergeShardCounts(minSup int64) (pkCounts, error) {
	if b := s.opts.MemoryBudget; b > 0 {
		var rows int64
		for _, sh := range s.shards {
			rows += int64(len(sh.ar.ck.keys))
		}
		// A (key, count) entry is one packed row wide.
		if costmodel.SpillRuns(rows, costmodel.PackedRowBytes, b) > 1 {
			return s.mergeShardCountsSpilled(minSup)
		}
	}
	parts := make([]pkCounts, len(s.shards))
	for i, sh := range s.shards {
		parts[i] = sh.ar.ck
	}
	s.ck = mergePackedCounts(parts, minSup, pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]})
	return s.ck, nil
}

// mergeShardCountsSpilled writes each shard's (key, count) list as one
// packed run — key in the row's Tid word so run order is key order — and
// streams the k-way merge, summing counts per key and applying the
// threshold on the fly. Only one count list's worth of pages is resident
// at a time (the pool), regardless of shard count.
func (s *partitionStepper) mergeShardCountsSpilled(minSup int64) (pkCounts, error) {
	if s.exPool == nil {
		// Frames cover the merge fan-in plus writer/scratch headroom.
		frames := 2*s.nshards + 8
		s.exPool = storage.NewPool(storage.NewMemStore(), frames)
	}
	ioStart := s.exPool.Stats.Accesses()
	runs := make([]storage.Run, 0, len(s.shards))
	for _, sh := range s.shards {
		ck := sh.ar.ck
		if len(ck.keys) == 0 {
			continue // nothing to exchange; an empty run would only skew accounting
		}
		w := storage.NewRunWriter(s.exPool)
		for i, k := range ck.keys {
			if err := w.Row(prow{Tid: k, Key: uint64(ck.counts[i])}); err != nil {
				w.Close()
				freeExchangeRuns(s.exPool, runs)
				return pkCounts{}, err
			}
		}
		run, err := w.Close()
		if err != nil {
			freeExchangeRuns(s.exPool, runs)
			return pkCounts{}, err
		}
		s.exStat.runs++
		s.exStat.bytes += run.Bytes()
		runs = append(runs, run)
	}

	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	var cur uint64
	var n int64
	flush := func() {
		if n >= minSup {
			dst.keys = append(dst.keys, cur)
			dst.counts = append(dst.counts, n)
		}
	}
	// Cascade rounds (engaged when the shard count exceeds the fan-in)
	// merge concurrently, bounded like the executor's spilled workers.
	fanIn := xsort.FanIn(s.exPool.Capacity())
	workers := costmodel.SpillWorkerCap(s.exPool.Capacity())
	if workers > s.nshards {
		workers = s.nshards
	}
	err := xsort.MergeRowsN(s.exPool, runs, fanIn, workers, func(r prow) error {
		if n > 0 && r.Tid == cur {
			n += int64(r.Key)
			return nil
		}
		flush()
		cur, n = r.Tid, int64(r.Key)
		return nil
	})
	if err != nil {
		return pkCounts{}, err
	}
	flush()
	s.exIO += s.exPool.Stats.Accesses() - ioStart
	s.ck = dst
	return dst, nil
}

// freeExchangeRuns returns already-written exchange runs to the pool.
func freeExchangeRuns(pool *storage.Pool, runs []storage.Run) {
	for i := range runs {
		runs[i].Free(pool)
	}
}

// release returns every live arena to the pool once the pipeline is
// done stepping.
func (s *partitionStepper) release() {
	for _, sh := range s.shards {
		if sh.ar != nil {
			sh.psales, sh.prk, sh.pjoin, sh.pext = nil, nil, nil, nil
			sh.ar.release()
			sh.ar = nil
		}
	}
	if s.dictAr != nil {
		s.dict = nil
		s.dictAr.release()
		s.dictAr = nil
	}
}

// stepGeneric runs one sharded iteration on the generic flat-relation
// substrate, exchanging flat int64 count lists.
func (s *partitionStepper) stepGeneric(k int, minSup int64) ([]ItemsetCount, iterSizes, error) {
	counts := make([][]int64, s.nshards)
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *partitionShard) {
			defer wg.Done()
			sh.skips = 0
			if sortRelation(sh.rk, 0) {
				sh.skips++
			}
			sh.rPrime = extendRelation(sh.rk, sh.join)
			byItems := sh.rPrime.clone()
			if sortRelation(byItems, 1) {
				sh.skips++
			}
			counts[i] = flatCountRuns(byItems, nil)
		}(i, sh)
	}
	wg.Wait()

	// Global pass: merge the shard counts into C_k.
	ck := mergeFlatCounts(counts, k, minSup)

	var rPrimeRows int64
	for _, sh := range s.shards {
		rPrimeRows += int64(sh.rPrime.rows())
	}

	// Local pass: filter each shard's R'_k by the global C_k.
	s.forEachShard(func(sh *partitionShard) {
		var fs int64
		sh.rk, fs = filterRelation(sh.rPrime, ck)
		sh.skips += fs
		sh.rPrime = relation{}
	})

	var rkRows, skips int64
	for _, sh := range s.shards {
		rkRows += int64(sh.rk.rows())
		skips += sh.skips
	}
	return ck, iterSizes{rPrime: rPrimeRows, rRows: rkRows, sortSkips: skips, plan: s.plan()}, nil
}
