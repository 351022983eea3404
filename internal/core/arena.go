package core

import (
	"sync"

	"setm/internal/xsort"
)

// mineArena holds the scratch buffers one mining run threads through
// its iterations: the dictionary's tables, the radix ping-pong buffers,
// the count step's key-column clone or histogram, the extension output,
// the filtered R_k, the packed C_k, and (for workers > 1) the
// per-worker chunk buffers. Buffers grow to the high-water mark of the
// run and are reused verbatim afterwards, so steady-state iterations
// allocate (almost) nothing.
type mineArena struct {
	ext      []prow   // R'_k, the extension output
	rkBuf    []prow   // R_k, the filter output
	rowsTmp  []prow   // radix scratch for (tid, key) sorts
	salesBuf []prow   // packed R_1
	joinBuf  []prow   // prefiltered join side (PrefilterSales only)
	keys     []uint64 // count step: sorted key-column clone or key histogram
	keysTmp  []uint64 // radix scratch for key sorts
	txItems  []uint64 // per-transaction code scratch
	bitmap   []uint64 // C_k membership bitmap for the filter step
	dictBuf  []int64  // the dictionary's code -> item table
	codes    []uint32 // the dictionary's dense item - lo -> code table
	ck       pkCounts // packed C_k

	// Per-worker buffers for the parallel chunk kernels (resident path)
	// and the spilled regime's worker-private key counters.
	wRows   [][]prow   // extension / filter chunk outputs
	wCounts []pkCounts // per-chunk count runs
	wTmp    [][]uint64 // per-chunk radix scratch
	wKeys   [][]uint64 // per-worker bounded key buffers (spilled regime)
	wSkips  []int64    // per-chunk sort-skip tallies
}

// arenaPool recycles arenas across mining runs, so a steady stream of
// mines reaches its buffer high-water marks once and then allocates
// (almost) nothing per run.
var arenaPool = sync.Pool{New: func() any { return new(mineArena) }}

func newMineArena() *mineArena { return arenaPool.Get().(*mineArena) }

// release returns the arena to the pool. Callers must drop every
// reference into its buffers first; the mining result never aliases
// arena memory (decodePatterns copies), so steppers release at pipeline
// end.
func (a *mineArena) release() { arenaPool.Put(a) }

// workerSlots makes the per-worker buffer tables at least n wide.
func (a *mineArena) workerSlots(n int) {
	for len(a.wRows) < n {
		a.wRows = append(a.wRows, nil)
	}
	for len(a.wCounts) < n {
		a.wCounts = append(a.wCounts, pkCounts{})
	}
	for len(a.wTmp) < n {
		a.wTmp = append(a.wTmp, nil)
	}
	for len(a.wKeys) < n {
		a.wKeys = append(a.wKeys, nil)
	}
	for len(a.wSkips) < n {
		a.wSkips = append(a.wSkips, 0)
	}
}

// growProws returns buf resized to n rows, reallocating only when the
// capacity is exceeded.
func growProws(buf []prow, n int) []prow {
	if cap(buf) < n {
		return make([]prow, n)
	}
	return buf[:n]
}

// growU64 returns buf resized to n words, reallocating only when the
// capacity is exceeded.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// growU32 returns buf resized to n entries, reallocating only when the
// capacity is exceeded.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// maxFilterBitmapBits bounds the key space a filter bitmap will cover:
// 2^22 bits is a 512 KiB bitmap, cleared and refilled per iteration from
// the arena. Wider key spaces fall back to binary search over C_k.
const maxFilterBitmapBits = 22

// buildKeyBitmap fills an arena-backed bitmap with the C_k keys so the
// filter step tests membership in O(1), or returns nil when the key
// space is too wide to map densely.
func buildKeyBitmap(ckKeys []uint64, keyBits uint, ar *mineArena) []uint64 {
	if keyBits > maxFilterBitmapBits {
		return nil
	}
	words := int((uint64(1)<<keyBits + 63) / 64)
	bm := growU64(ar.bitmap, words)
	ar.bitmap = bm
	clear(bm)
	for _, k := range ckKeys {
		bm[k>>6] |= 1 << (k & 63)
	}
	return bm
}

// chunkProwsByTid splits rows (sorted by tid) into at most n ranges
// whose boundaries respect transaction groups.
func chunkProwsByTid(rows []prow, n int) [][2]int {
	if len(rows) == 0 || n < 1 {
		return nil
	}
	var bounds [][2]int
	target := (len(rows) + n - 1) / n
	start := 0
	for start < len(rows) {
		end := start + target
		if end >= len(rows) {
			end = len(rows)
		} else {
			tid := rows[end-1].Tid
			for end < len(rows) && rows[end].Tid == tid {
				end++
			}
		}
		bounds = append(bounds, [2]int{start, end})
		start = end
	}
	return bounds
}

// packedSalesWindow returns the sub-slice of sales (sorted by tid)
// covering the tid range [loTid, hiTid].
func packedSalesWindow(sales []prow, loTid, hiTid uint64) []prow {
	lo, hi := 0, len(sales)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sales[mid].Tid < loTid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo
	lo, hi = first, len(sales)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sales[mid].Tid <= hiTid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return sales[first:lo]
}

// extendParallelPacked runs the packed merge-scan extension over
// transaction-aligned chunks concurrently, concatenating into the
// arena's extension buffer; the concatenation preserves global
// (tid, key) order because chunks are tid-disjoint and ascending.
func extendParallelPacked(rk, sales []prow, itemBits uint, workers int, ar *mineArena) []prow {
	bounds := chunkProwsByTid(rk, workers)
	if len(bounds) <= 1 {
		return packedExtend(rk, sales, itemBits, ar.ext[:0])
	}
	ar.workerSlots(len(bounds))
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func(i int, b [2]int) {
			defer wg.Done()
			chunk := rk[b[0]:b[1]]
			sub := packedSalesWindow(sales, chunk[0].Tid, chunk[len(chunk)-1].Tid)
			ar.wRows[i] = packedExtend(chunk, sub, itemBits, ar.wRows[i][:0])
		}(i, b)
	}
	wg.Wait()
	out := ar.ext[:0]
	for i := range bounds {
		out = append(out, ar.wRows[i]...)
	}
	return out
}

// countKeysParallel sorts key-column chunks concurrently, counts runs
// per chunk, and merges the per-chunk counts with the support threshold
// applied at the end — identical to a single global sort-and-count.
func countKeysParallel(keys []uint64, minSup int64, workers int, ar *mineArena, dst pkCounts, skips *int64) pkCounts {
	bounds := evenChunks(len(keys), workers)
	if len(bounds) <= 1 {
		if keysSorted(keys) {
			*skips++
		} else {
			ar.keysTmp = growU64(ar.keysTmp, len(keys))
			xsort.RadixSortU64(keys, ar.keysTmp)
		}
		return packedCountRuns(keys, minSup, dst)
	}
	ar.workerSlots(len(bounds))
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func(i int, b [2]int) {
			defer wg.Done()
			chunk := keys[b[0]:b[1]]
			ar.wSkips[i] = 0
			if keysSorted(chunk) {
				ar.wSkips[i] = 1
			} else {
				ar.wTmp[i] = growU64(ar.wTmp[i], len(chunk))
				xsort.RadixSortU64(chunk, ar.wTmp[i])
			}
			ar.wCounts[i] = packedCountRuns(chunk, 1, pkCounts{
				keys:   ar.wCounts[i].keys[:0],
				counts: ar.wCounts[i].counts[:0],
			})
		}(i, b)
	}
	wg.Wait()
	for i := range bounds {
		*skips += ar.wSkips[i]
	}
	return mergePackedCounts(ar.wCounts[:len(bounds)], minSup, dst)
}

// filterParallelPacked applies the support filter over row chunks
// concurrently and concatenates into the arena's R_k buffer, preserving
// row order (and so the (trans_id, items) sort). bm, when non-nil, is
// the shared read-only C_k membership bitmap.
func filterParallelPacked(rPrime []prow, ckKeys []uint64, bm []uint64, workers int, ar *mineArena) []prow {
	bounds := evenChunks(len(rPrime), workers)
	if len(bounds) <= 1 {
		if bm != nil && len(ckKeys) > 0 {
			return packedFilterBitmap(rPrime, bm, ar.rkBuf[:0])
		}
		return packedFilter(rPrime, ckKeys, ar.rkBuf[:0])
	}
	ar.workerSlots(len(bounds))
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func(i int, b [2]int) {
			defer wg.Done()
			if bm != nil && len(ckKeys) > 0 {
				ar.wRows[i] = packedFilterBitmap(rPrime[b[0]:b[1]], bm, ar.wRows[i][:0])
			} else {
				ar.wRows[i] = packedFilter(rPrime[b[0]:b[1]], ckKeys, ar.wRows[i][:0])
			}
		}(i, b)
	}
	wg.Wait()
	out := ar.rkBuf[:0]
	for i := range bounds {
		out = append(out, ar.wRows[i]...)
	}
	return out
}
