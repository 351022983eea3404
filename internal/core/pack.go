package core

// The packed-key execution engine. At mine start item ids are
// dictionary-encoded into a dense domain (buildDict, newPackDict): when
// the ids span at most about four entries per SALES row, a presence
// sweep over a direct-address table yields the ascending items and the
// table then maps an item to its code in one load; wider id spaces
// radix-sort the occurrences and binary-search the items instead. While
// k*bitsPerItem fits one 64-bit word, an R'_k row is a (trans_id, key)
// pair with the whole pattern bit-packed into the key — item_1 in the
// most significant bits — so unsigned integer order on keys equals
// lexicographic order on patterns. The per-iteration kernels then
// collapse:
//
//   - the paper's sort of R_{k-1} on (trans_id, items) is skipped: packed
//     SALES, the extension and the filter all emit rows in that order
//     (packSales checks the transaction ids and sorts only when they are
//     not strictly increasing);
//   - counting C_k is a histogram over the key domain when it has no more
//     entries than there are keys (always for C_1), swept in key order;
//     a wider domain sorts the key column with byte-wise LSD radix passes
//     and counts runs by integer equality;
//   - the support filter is an O(1) bitmap probe over a narrow key space,
//     else a binary search over the packed C_k keys.
//
// Patterns too wide to pack (k*bitsPerItem > 64) fall back mid-run to
// the generic int64 relation kernels of relation.go, which also remain
// the conformance oracle behind Options.DisablePackedKernels.

import (
	"math"
	"math/bits"
	"slices"

	"setm/internal/storage"
	"setm/internal/xsort"
)

// tidFlip turns an int64 trans_id into a uint64 whose unsigned order
// matches the signed order, so radix passes over raw bytes sort
// correctly even for negative ids.
const tidFlip = uint64(1) << 63

// prow is one packed R_k row: the Tid field holds trans_id XOR tidFlip,
// the Key field the k item codes with item_1 in the most significant
// bits. It IS the storage layer's packed row — the in-memory kernels and
// the spilled page runs share one representation, so spilling a relation
// is a raw memory write, never a re-encoding.
type prow = storage.PackedRow

// packDict is the order-preserving dense item dictionary: code i stands
// for the i-th smallest distinct item, so code order equals item order.
// When the item ids span a narrow enough range (denseSpan), dense maps
// item-lo straight to the item's code; otherwise code binary-searches
// items.
type packDict struct {
	items []int64  // code -> item, ascending
	bits  uint     // bits per item code (>= 1)
	lo    int64    // smallest item: dense[item-lo] is the item's code
	dense []uint32 // item - lo -> code; nil for a sparse id space
}

// denseSlackPerRow and denseSlack bound a direct-address code table to
// 4*rows+64 entries of 4 bytes: never more RAM than the rows it codes
// (R_1 rows are 16 bytes).
const (
	denseSlackPerRow = 4
	denseSlack       = 64
)

// denseSpan returns the entry count hi-lo+1 of a direct-address table
// over the ids [lo, hi] (lo <= hi) coding rows occurrences, and whether
// the span is narrow enough to build one. The span is computed in
// uint64 and compared without the +1, so ids at math.MinInt64 and
// math.MaxInt64 cannot overflow it.
func denseSpan(lo, hi int64, rows int) (int, bool) {
	span := uint64(hi) - uint64(lo) // hi-lo+1 entries, exact modulo 2^64
	if span >= denseSlackPerRow*uint64(rows)+denseSlack || span >= 1<<32 {
		return 0, false
	}
	return int(span) + 1, true
}

// codeBits is the code width for n distinct items.
func codeBits(n int) uint {
	if n > 1 {
		return uint(bits.Len64(uint64(n - 1)))
	}
	return 1
}

// newPackDict builds a dictionary from the ascending distinct item list,
// with a freshly allocated code table when the ids are dense enough.
func newPackDict(sortedDistinct []int64) *packDict {
	d := &packDict{items: sortedDistinct, bits: codeBits(len(sortedDistinct))}
	if n := len(sortedDistinct); n > 0 {
		lo := sortedDistinct[0]
		if span, ok := denseSpan(lo, sortedDistinct[n-1], n); ok {
			d.lo, d.dense = lo, make([]uint32, span)
			for c, it := range sortedDistinct {
				d.dense[uint64(it-lo)] = uint32(c)
			}
		}
	}
	return d
}

// buildDict collects the distinct items of a dataset into a dictionary
// backed by the arena's tables, which stay valid until the arena is
// released at pipeline end, outliving every use of the dictionary.
// When the id span is dense (denseSpan over all occurrences) a presence
// sweep over the code table yields the items in ascending order;
// otherwise the (sign-flipped) occurrences are radix-sorted and
// compacted.
func buildDict(d *Dataset, ar *mineArena) *packDict {
	total := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, tx := range d.Transactions {
		total += len(tx.Items)
		for _, it := range tx.Items {
			lo, hi = min(lo, it), max(hi, it)
		}
	}
	items := ar.dictBuf[:0]
	if span, ok := denseSpan(lo, hi, total); ok && total > 0 {
		table := growU32(ar.codes, span)
		clear(table)
		for _, tx := range d.Transactions {
			for _, it := range tx.Items {
				table[uint64(it-lo)] = 1
			}
		}
		for i, present := range table {
			if present != 0 {
				table[i] = uint32(len(items))
				items = append(items, lo+int64(i))
			}
		}
		ar.codes, ar.dictBuf = table, items
		return &packDict{items: items, bits: codeBits(len(items)), lo: lo, dense: table}
	}
	ar.keys = growU64(ar.keys, total)
	all := ar.keys[:0]
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			all = append(all, uint64(it)^tidFlip)
		}
	}
	ar.keysTmp = growU64(ar.keysTmp, len(all))
	xsort.RadixSortU64(all, ar.keysTmp)
	var prev uint64
	for i, v := range all {
		if i == 0 || v != prev {
			items = append(items, int64(v^tidFlip))
			prev = v
		}
	}
	ar.dictBuf = items
	return &packDict{items: items, bits: codeBits(len(items))}
}

// code returns the dense code of an item known to be in the dictionary.
func (d *packDict) code(item int64) uint64 {
	if d.dense != nil {
		return uint64(d.dense[uint64(item-d.lo)])
	}
	return d.searchCode(item)
}

// searchCode is code for a sparse id space: a binary search of items.
// Kept out of line so that code, the dense table lookup, inlines.
//
//go:noinline
func (d *packDict) searchCode(item int64) uint64 {
	i, _ := slices.BinarySearch(d.items, item)
	return uint64(i)
}

// contains reports whether item is in the dictionary.
func (d *packDict) contains(item int64) bool {
	if d.dense != nil {
		i := uint64(item - d.lo)
		return i < uint64(len(d.dense)) && d.items[d.dense[i]] == item
	}
	_, ok := slices.BinarySearch(d.items, item)
	return ok
}

// maxPackedK is the longest pattern length one key can hold.
func (d *packDict) maxPackedK() int { return int(64 / d.bits) }

// keyDomain is the size of the k-item key space, 1 << (k*bits),
// saturated at math.MaxUint64 for a full-width key.
func (d *packDict) keyDomain(k int) uint64 {
	if kb := uint(k) * d.bits; kb < 64 {
		return 1 << kb
	}
	return math.MaxUint64
}

// packSales builds the packed R_1 = SALES(trans_id, item code), items
// deduplicated per transaction and rows globally sorted by
// (trans_id, code) — the packed twin of salesRelation. Each basket's
// codes are sorted, so strictly increasing transaction ids make the
// rows ordered by construction; only other id orders pay the row scan
// and, when it fails, a radix sort.
func packSales(d *Dataset, dict *packDict, ar *mineArena) []prow {
	total := 0
	for _, tx := range d.Transactions {
		total += len(tx.Items)
	}
	ar.salesBuf = growProws(ar.salesBuf, total)
	rows := ar.salesBuf[:0]
	scratch := ar.txItems[:0]
	tidsAscending := true
	for t, tx := range d.Transactions {
		if t > 0 && tx.ID <= d.Transactions[t-1].ID {
			tidsAscending = false
		}
		scratch = scratch[:0]
		for _, it := range tx.Items {
			scratch = append(scratch, dict.code(it))
		}
		// Baskets are short; insertion sort beats the generic sort here.
		for i := 1; i < len(scratch); i++ {
			v := scratch[i]
			j := i - 1
			for j >= 0 && scratch[j] > v {
				scratch[j+1] = scratch[j]
				j--
			}
			scratch[j+1] = v
		}
		utid := uint64(tx.ID) ^ tidFlip
		var prev uint64
		for i, c := range scratch {
			if i > 0 && c == prev {
				continue
			}
			prev = c
			rows = append(rows, prow{Tid: utid, Key: c})
		}
	}
	ar.txItems = scratch
	ar.salesBuf = rows
	if !tidsAscending && !prowsSorted(rows) {
		ar.rowsTmp = growProws(ar.rowsTmp, len(rows))
		xsort.RadixSortRows(rows, ar.rowsTmp)
	}
	return rows
}

// prowsSorted reports whether rows are ordered by (tid, key) — the
// sortedness pre-scan that lets steppers skip the paper's re-sorts.
func prowsSorted(rows []prow) bool {
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Tid > b.Tid || (a.Tid == b.Tid && a.Key > b.Key) {
			return false
		}
	}
	return true
}

// keysSorted reports whether keys are in ascending order.
func keysSorted(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

// packedExtend is the merge-scan join of packed R_{k-1} with packed R_1
// (Figure 4's extension step): both inputs sorted by trans_id; within a
// transaction each pattern is extended by the sale items whose code
// exceeds its last item's. Appends to out and returns it; the output
// inherits (trans_id, key) order.
func packedExtend(rk, sales []prow, itemBits uint, out []prow) []prow {
	mask := uint64(1)<<itemBits - 1
	nr, ns := len(rk), len(sales)
	i, j := 0, 0
	for i < nr && j < ns {
		tid := rk[i].Tid
		switch {
		case sales[j].Tid < tid:
			j++
		case sales[j].Tid > tid:
			i++
		default:
			iEnd := i
			for iEnd < nr && rk[iEnd].Tid == tid {
				iEnd++
			}
			jEnd := j
			for jEnd < ns && sales[jEnd].Tid == tid {
				jEnd++
			}
			for p := i; p < iEnd; p++ {
				last := rk[p].Key & mask
				base := rk[p].Key << itemBits
				for q := j; q < jEnd; q++ {
					if it := sales[q].Key; it > last {
						out = append(out, prow{Tid: tid, Key: base | it})
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out
}

// pkCounts is a packed count relation C_k: ascending pattern keys with
// their support counts in parallel slices.
type pkCounts struct {
	keys   []uint64
	counts []int64
}

// packedCountRuns scans ascending keys and appends one (key, count) per
// run meeting minSup to dst — the paper's sequential count scan as an
// integer-equality loop.
func packedCountRuns(keys []uint64, minSup int64, dst pkCounts) pkCounts {
	n := len(keys)
	i := 0
	for i < n {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		if int64(j-i) >= minSup {
			dst.keys = append(dst.keys, keys[i])
			dst.counts = append(dst.counts, int64(j-i))
		}
		i = j
	}
	return dst
}

// packedCountHist counts the keys of rows in the direct-address table
// hist, one counter per key of the domain, and appends one (key, count)
// per key meeting minSup to dst by sweeping the table in ascending key
// order — exactly packedCountRuns' output over the sorted key column,
// without copying or sorting it. Every key must be below len(hist).
func packedCountHist(rows []prow, hist []uint64, minSup int64, dst pkCounts) pkCounts {
	clear(hist)
	for _, r := range rows {
		hist[r.Key]++
	}
	for key, c := range hist {
		if c != 0 && int64(c) >= minSup {
			dst.keys = append(dst.keys, uint64(key))
			dst.counts = append(dst.counts, int64(c))
		}
	}
	return dst
}

// countRows produces the packed C_k of rows at minSup, serially. When
// the key domain (keys lie in [0, domain)) has no more entries than
// there are rows, a histogram in the arena's key buffer counts straight
// off the rows and the sort is skipped; a wider domain copies the key
// column, sorts it unless it is already ordered, and scans its runs.
// Skipped sorts are tallied in skips.
func countRows(rows []prow, domain uint64, minSup int64, ar *mineArena, dst pkCounts, skips *int64) pkCounts {
	if domain <= uint64(len(rows)) {
		ar.keys = growU64(ar.keys, int(domain))
		*skips++
		return packedCountHist(rows, ar.keys, minSup, dst)
	}
	keys := keyColumn(rows, ar)
	if keysSorted(keys) {
		*skips++
	} else {
		ar.keysTmp = growU64(ar.keysTmp, len(keys))
		xsort.RadixSortU64(keys, ar.keysTmp)
	}
	return packedCountRuns(keys, minSup, dst)
}

// keyColumn copies the keys of rows into the arena's key buffer.
func keyColumn(rows []prow, ar *mineArena) []uint64 {
	keys := growU64(ar.keys, len(rows))
	ar.keys = keys
	for i, r := range rows {
		keys[i] = r.Key
	}
	return keys
}

// mergePackedCounts merges per-chunk (or per-shard) packed count lists,
// summing counts of keys that appear in several lists and keeping those
// meeting minSup — the packed twin of mergeFlatCounts. Appends to dst.
func mergePackedCounts(parts []pkCounts, minSup int64, dst pkCounts) pkCounts {
	heads := make([]int, len(parts))
	for {
		best := -1
		var bk uint64
		for i, h := range heads {
			if h >= len(parts[i].keys) {
				continue
			}
			if k := parts[i].keys[h]; best == -1 || k < bk {
				best, bk = i, k
			}
		}
		if best == -1 {
			return dst
		}
		var total int64
		for i, h := range heads {
			if h < len(parts[i].keys) && parts[i].keys[h] == bk {
				total += parts[i].counts[h]
				heads[i] = h + 1
			}
		}
		if total >= minSup {
			dst.keys = append(dst.keys, bk)
			dst.counts = append(dst.counts, total)
		}
	}
}

// packedFilter keeps the rows whose key occurs in the ascending ckKeys —
// the paper's C_k look-up as a binary search. Appends to out; row order
// (and so the (trans_id, items) sort) is preserved.
func packedFilter(rPrime []prow, ckKeys []uint64, out []prow) []prow {
	if len(ckKeys) == 0 {
		return out
	}
	for _, r := range rPrime {
		if _, ok := slices.BinarySearch(ckKeys, r.Key); ok {
			out = append(out, r)
		}
	}
	return out
}

// packedFilterBitmap is packedFilter with the C_k look-up as an O(1)
// bitmap test — used whenever the k*bitsPerItem key space is narrow
// enough to map densely (see buildKeyBitmap).
func packedFilterBitmap(rPrime []prow, bm []uint64, out []prow) []prow {
	for _, r := range rPrime {
		if bm[r.Key>>6]&(1<<(r.Key&63)) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// decodePatterns expands packed counts into the public ItemsetCount form.
// All pattern slices share one backing array: two allocations per C_k
// regardless of pattern count.
func decodePatterns(pk pkCounts, k int, dict *packDict) []ItemsetCount {
	if len(pk.keys) == 0 {
		return nil
	}
	out := make([]ItemsetCount, len(pk.keys))
	backing := make([]Item, len(pk.keys)*k)
	mask := uint64(1)<<dict.bits - 1
	for i, key := range pk.keys {
		items := backing[i*k : (i+1)*k : (i+1)*k]
		for c := 0; c < k; c++ {
			items[c] = dict.items[(key>>(uint(k-1-c)*dict.bits))&mask]
		}
		out[i] = ItemsetCount{Items: items, Count: pk.counts[i]}
	}
	return out
}

// unpackRel expands packed rows into the generic flat relation — the
// bridge to the int64 kernels when patterns outgrow the 64-bit key.
func unpackRel(rows []prow, k int, dict *packDict) relation {
	st := k + 1
	rel := relation{stride: st, data: make([]int64, len(rows)*st)}
	mask := uint64(1)<<dict.bits - 1
	for i, r := range rows {
		off := i * st
		rel.data[off] = int64(r.Tid ^ tidFlip)
		for c := 0; c < k; c++ {
			rel.data[off+1+c] = dict.items[(r.Key>>(uint(k-1-c)*dict.bits))&mask]
		}
	}
	return rel
}

// The packed-key substrate's stepper lives in executor.go: the adaptive
// executor runs these kernels directly on arena-backed slices in its
// resident regime and over spillable relations (spill.go) past the
// memory budget.
