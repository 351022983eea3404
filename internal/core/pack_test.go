package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"setm/internal/xsort"
)

func TestPackDictOrderPreserving(t *testing.T) {
	items := []int64{-500, -3, 0, 1, 2, 7, 1 << 40}
	dict := newPackDict(items)
	for i, it := range items {
		if got := dict.code(it); got != uint64(i) {
			t.Errorf("code(%d) = %d, want %d", it, got, i)
		}
	}
	// Code order must equal item order so packed-key comparisons match
	// lexicographic pattern comparisons.
	for i := 1; i < len(items); i++ {
		if !(dict.code(items[i-1]) < dict.code(items[i])) {
			t.Errorf("codes not ascending at %d", i)
		}
	}
	if dict.bits != 3 { // 7 items -> codes 0..6 -> 3 bits
		t.Errorf("bits = %d, want 3", dict.bits)
	}
	if got := dict.maxPackedK(); got != 21 {
		t.Errorf("maxPackedK = %d, want 21", got)
	}
}

func TestRadixSortU64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 100, 4096} {
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.Intn(3) {
			case 0:
				keys[i] = uint64(rng.Intn(50)) // narrow domain: few passes
			case 1:
				keys[i] = rng.Uint64() // full width
			default:
				keys[i] = rng.Uint64() | 1<<63 // exercise the top byte
			}
		}
		want := append([]uint64(nil), keys...)
		slices.Sort(want)
		xsort.RadixSortU64(keys, make([]uint64, n))
		if !slices.Equal(keys, want) {
			t.Fatalf("n=%d: radix sort mismatch", n)
		}
	}
}

func TestRadixSortRowsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 257, 2000} {
		rows := make([]prow, n)
		for i := range rows {
			rows[i] = prow{Tid: uint64(rng.Intn(40)) ^ tidFlip, Key: uint64(rng.Intn(64))}
		}
		want := append([]prow(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Tid != want[j].Tid {
				return want[i].Tid < want[j].Tid
			}
			return want[i].Key < want[j].Key
		})
		xsort.RadixSortRows(rows, make([]prow, n))
		if !slices.Equal(rows, want) {
			t.Fatalf("n=%d: row radix sort mismatch", n)
		}
		if !prowsSorted(rows) {
			t.Fatalf("n=%d: prowsSorted rejects sorted rows", n)
		}
	}
}

// signedDataset builds a deterministic random dataset, with negative
// item and transaction ids mixed in to exercise the order-preserving
// encodings.
func signedDataset(seed int64, txns, maxLen, nItems int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	id := int64(-5) // negative trans_ids exercise the tid sign flip
	for i := 0; i < txns; i++ {
		id += int64(rng.Intn(7)) + 1
		items := make([]Item, rng.Intn(maxLen)+1)
		for j := range items {
			items[j] = Item(rng.Intn(nItems) - nItems/3)
		}
		d.Transactions = append(d.Transactions, Transaction{ID: id, Items: items})
	}
	return d
}

func TestPackSalesMatchesSalesRelation(t *testing.T) {
	d := signedDataset(21, 60, 9, 30)
	want := salesRelation(d)
	ar := newMineArena()
	defer ar.release()
	dict := buildDict(d, ar)
	rows := packSales(d, dict, ar)
	got := unpackRel(rows, 1, dict)
	if !slices.Equal(got.data, want.data) {
		t.Fatalf("packed sales mismatch:\ngot  %v\nwant %v", got.data, want.data)
	}
}

// TestPackedMatchesGenericDrivers pins the packed engine to the generic
// kernels on random data across the three in-memory drivers.
func TestPackedMatchesGenericDrivers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := signedDataset(seed, 90, 10, 24)
		for _, ms := range []int64{2, 5, 12} {
			generic := Options{MinSupportCount: ms, DisablePackedKernels: true}
			packed := Options{MinSupportCount: ms}
			want, err := MineMemory(d, generic)
			if err != nil {
				t.Fatal(err)
			}
			for name, mine := range map[string]func() (*Result, error){
				"memory":      func() (*Result, error) { return MineMemory(d, packed) },
				"parallel":    func() (*Result, error) { return MineParallel(d, packed, 3) },
				"partitioned": func() (*Result, error) { return MinePartitioned(d, packed, 3) },
			} {
				got, err := mine()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				fuzzSameCounts(t, name, want, got)
			}
		}
	}
}

// TestPackedWideDomainFallback forces the mid-run fallback: ~4800
// distinct items need 13 bits per code, so patterns of length 5+ no
// longer fit the 64-bit key and the engine must hand off to the generic
// kernels without changing any result.
func TestPackedWideDomainFallback(t *testing.T) {
	common := []Item{1, 2, 3, 4, 5, 6}
	d := &Dataset{}
	filler := int64(1000)
	for i := 0; i < 30; i++ {
		items := append([]Item(nil), common...)
		for j := 0; j < 160; j++ {
			items = append(items, filler)
			filler++
		}
		d.Transactions = append(d.Transactions, Transaction{ID: int64(i + 1), Items: items})
	}
	ar := newMineArena()
	dict := buildDict(d, ar)
	maxK := dict.maxPackedK()
	ar.release()
	if maxK >= len(common) {
		t.Fatalf("setup: maxPackedK = %d does not force a fallback before k=%d", maxK, len(common))
	}

	opts := Options{MinSupportCount: 25}
	want, err := MineMemory(d, Options{MinSupportCount: 25, DisablePackedKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.MaxLen() != len(common) {
		t.Fatalf("setup: MaxLen = %d, want %d (must cross the packed boundary)", want.MaxLen(), len(common))
	}
	got, err := MineMemory(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameCounts(t, "memory-fallback", want, got)
	gotPart, err := MinePartitioned(d, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameCounts(t, "partitioned-fallback", want, gotPart)
	gotPar, err := MineParallel(d, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameCounts(t, "parallel-fallback", want, gotPar)
}

// TestSortsSkippedCounted asserts the sortedness fast path actually
// fires: extension and filtering preserve (trans_id, items) order, so
// every iteration past the first should skip at least the re-sort of
// R_{k-1} and the post-filter sort, on both substrates.
func TestSortsSkippedCounted(t *testing.T) {
	d := signedDataset(4, 120, 8, 14)
	for _, opts := range []Options{
		{MinSupportCount: 4},
		{MinSupportCount: 4, DisablePackedKernels: true},
	} {
		res, err := MineMemory(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxLen() < 2 {
			t.Fatalf("setup: need at least two iterations, got %d", res.MaxLen())
		}
		for _, st := range res.Stats[1:] {
			if st.RRows > 0 && st.SortsSkipped < 2 {
				t.Errorf("packed=%v k=%d: SortsSkipped = %d, want >= 2",
					!opts.DisablePackedKernels, st.K, st.SortsSkipped)
			}
		}
	}
}

// TestPackedSteadyStateAllocs pins the arena reuse: once the pool is
// warm, a whole mining run should stay well under 100 allocations.
func TestPackedSteadyStateAllocs(t *testing.T) {
	d := signedDataset(11, 3000, 10, 50)
	opts := Options{MinSupportCount: 40}
	if _, err := MineMemory(d, opts); err != nil { // warm the arena pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := MineMemory(d, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("steady-state MineMemory allocs = %.0f, want <= 100", allocs)
	}
}

func TestBuildKeyBitmap(t *testing.T) {
	ar := newMineArena()
	defer ar.release()
	if bm := buildKeyBitmap([]uint64{1}, maxFilterBitmapBits+1, ar); bm != nil {
		t.Fatal("bitmap built for an over-wide key space")
	}
	keys := []uint64{0, 3, 64, 4095}
	bm := buildKeyBitmap(keys, 12, ar)
	if bm == nil {
		t.Fatal("no bitmap for a 12-bit key space")
	}
	for k := uint64(0); k < 4096; k++ {
		want := slices.Contains(keys, k)
		got := bm[k>>6]&(1<<(k&63)) != 0
		if got != want {
			t.Fatalf("bitmap[%d] = %v, want %v", k, got, want)
		}
	}
}

func TestDenseSpanBounds(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		rows   int
		span   int
		dense  bool
	}{
		{"single id", 7, 7, 1, 1, true},
		{"negative ids", -40, -1, 10, 40, true},
		{"at the bound", 0, 4*1 + 64 - 1, 1, 4*1 + 64, true},
		{"just over the bound", 0, 4*1 + 64, 1, 0, false},
		{"min int64 alone", math.MinInt64, math.MinInt64, 1, 1, true},
		{"max int64 alone", math.MaxInt64, math.MaxInt64, 1, 1, true},
		{"near min int64", math.MinInt64, math.MinInt64 + 20, 5, 21, true},
		{"near max int64", math.MaxInt64 - 20, math.MaxInt64, 5, 21, true},
		{"full int64 range", math.MinInt64, math.MaxInt64, math.MaxInt32, 0, false},
		{"across zero, wide", -1 << 40, 1 << 40, 1 << 20, 0, false},
	} {
		span, ok := denseSpan(c.lo, c.hi, c.rows)
		if ok != c.dense || (ok && span != c.span) {
			t.Errorf("%s: denseSpan = (%d, %v), want (%d, %v)", c.name, span, ok, c.span, c.dense)
		}
	}
}

// edgeDatasets are the pass-1 edge cases: id spaces on both sides of the
// dense-table bound (including ids at the ends of int64), and
// transaction orders packSales cannot take as sorted. wantDense says
// whether buildDict must build the direct-address code table.
func edgeDatasets() []struct {
	name      string
	d         *Dataset
	wantDense bool
} {
	tx := func(id int64, items ...Item) Transaction { return Transaction{ID: id, Items: items} }
	const lo, hi = math.MinInt64, math.MaxInt64
	// Six occurrences bound the table at 4*6+64 = 88 entries.
	return []struct {
		name      string
		d         *Dataset
		wantDense bool
	}{
		{"negative ids", signedDataset(5, 40, 5, 30), true},
		// Few items, many baskets: C_2 and C_3 take the histogram.
		{"narrow key domain", signedDataset(6, 300, 6, 6), true},
		{"narrow key domain, int64 ends", extremeItems(signedDataset(7, 300, 5, 5)), false},
		{"single item", &Dataset{Transactions: []Transaction{tx(1, 7), tx(2, 7, 7), tx(4, 7)}}, true},
		{"ids at both int64 ends", &Dataset{Transactions: []Transaction{
			tx(1, lo, hi, 0), tx(2, lo+1, hi), tx(3, lo, lo+1, hi-1), tx(5, hi, hi-1, lo)}}, false},
		{"ids near min int64", &Dataset{Transactions: []Transaction{
			tx(1, lo, lo+3), tx(2, lo+3, lo+1, lo), tx(3, lo+2, lo)}}, true},
		{"ids near max int64", &Dataset{Transactions: []Transaction{
			tx(1, hi, hi-3), tx(2, hi-3, hi-1, hi), tx(3, hi-2, hi)}}, true},
		{"span at the bound", &Dataset{Transactions: []Transaction{
			tx(1, 0, 1), tx(2, 1, 2), tx(3, 0, 87)}}, true},
		{"span just over the bound", &Dataset{Transactions: []Transaction{
			tx(1, 0, 1), tx(2, 1, 2), tx(3, 0, 88)}}, false},
		{"descending tids", &Dataset{Transactions: []Transaction{
			tx(9, 3, 1, 2), tx(7, 2, 3), tx(4, 1, 2, 3), tx(-2, 3, 1)}}, true},
		{"duplicated tids", &Dataset{Transactions: []Transaction{
			tx(1, 1, 2), tx(3, 3, 2), tx(3, 1, 2), tx(3, 2), tx(5, 1, 3, 2)}}, true},
		{"sparse, descending tids", &Dataset{Transactions: []Transaction{
			tx(8, hi, lo), tx(6, lo, 0, hi), tx(6, 0, hi), tx(2, lo, 0)}}, false},
	}
}

// extremeItems moves the small items of d to the ends of the int64
// range, negative ones next to math.MinInt64 and the others next to
// math.MaxInt64, keeping their order.
func extremeItems(d *Dataset) *Dataset {
	const gap = 1000
	for _, tx := range d.Transactions {
		for i, it := range tx.Items {
			if it < 0 {
				tx.Items[i] = math.MinInt64 + gap + it
			} else {
				tx.Items[i] = math.MaxInt64 - gap + it
			}
		}
	}
	return d
}

// TestPackDictDenseMatchesSparse checks that buildDict picks the dense
// table exactly when the id span is within bound, and that dense codes,
// sparse codes and newPackDict's codes all equal the items' ranks.
func TestPackDictDenseMatchesSparse(t *testing.T) {
	for _, c := range edgeDatasets() {
		var want []int64
		for _, tx := range c.d.Transactions {
			want = append(want, tx.Items...)
		}
		slices.Sort(want)
		want = slices.Compact(want)

		ar := newMineArena()
		dict := buildDict(c.d, ar)
		if got := dict.dense != nil; got != c.wantDense {
			t.Errorf("%s: dense table = %v, want %v", c.name, got, c.wantDense)
		}
		if !slices.Equal(dict.items, want) {
			t.Errorf("%s: items = %v, want %v", c.name, dict.items, want)
		}
		if want := codeBits(len(want)); dict.bits != want {
			t.Errorf("%s: bits = %d, want %d", c.name, dict.bits, want)
		}
		sparse := &packDict{items: want, bits: dict.bits}
		fresh := newPackDict(want)
		for i, it := range want {
			for name, d := range map[string]*packDict{"built": dict, "sparse": sparse, "newPackDict": fresh} {
				if got := d.code(it); got != uint64(i) {
					t.Errorf("%s: %s code(%d) = %d, want %d", c.name, name, it, got, i)
				}
				if !d.contains(it) {
					t.Errorf("%s: %s does not contain %d", c.name, name, it)
				}
			}
			// Neighbouring ids (wrapping at the int64 ends) that are not
			// items must not be reported as members.
			for _, other := range []int64{it - 1, it + 1} {
				if _, in := slices.BinarySearch(want, other); !in && dict.contains(other) {
					t.Errorf("%s: contains(%d) for a non-item", c.name, other)
				}
			}
		}
		ar.release()
	}
}

// TestPackSalesEdgeCases pins packSales to salesRelation on every edge
// dataset: descending and duplicated transaction ids must still come
// out sorted by (trans_id, item).
func TestPackSalesEdgeCases(t *testing.T) {
	for _, c := range edgeDatasets() {
		ar := newMineArena()
		dict := buildDict(c.d, ar)
		rows := packSales(c.d, dict, ar)
		if !prowsSorted(rows) {
			t.Errorf("%s: packed SALES not in (trans_id, code) order", c.name)
		}
		if got, want := unpackRel(rows, 1, dict), salesRelation(c.d); !slices.Equal(got.data, want.data) {
			t.Errorf("%s: packed sales mismatch:\ngot  %v\nwant %v", c.name, got.data, want.data)
		}
		ar.release()
	}
}

// TestPassOneEdgeCasesMatchGeneric mines every edge dataset with the
// packed executor — histogram C_1 and, where the key domain is narrow,
// histogram C_k — and compares against the generic kernels, with and
// without border retention (which counts at threshold 1).
func TestPassOneEdgeCasesMatchGeneric(t *testing.T) {
	for _, c := range edgeDatasets() {
		for _, ms := range []int64{1, 2} {
			want, err := MineMemory(c.d, Options{MinSupportCount: ms, DisablePackedKernels: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, retain := range []bool{false, true} {
				label := fmt.Sprintf("%s minsup=%d retain=%v", c.name, ms, retain)
				got, err := MineAuto(c.d, Options{MinSupportCount: ms, RetainBorder: retain})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fuzzSameCounts(t, label, want, got)
				if retain {
					checkBorderLevels(t, label, c.d, got.Border, ms)
				}
			}
		}
	}
}

// checkBorderLevels checks a retained border's first two levels against
// a direct count over the SALES rows: level 1 splits every item, level 2
// every pair of items sharing a trans_id (R_1 is not filtered, so every
// such pair is a candidate), at minSup, with exact supports.
func checkBorderLevels(t *testing.T, label string, d *Dataset, snap *BorderSnapshot, minSup int64) {
	t.Helper()
	if snap == nil {
		t.Fatalf("%s: no border snapshot", label)
	}
	// Patterns are keyed by their first and last item, so a level-1
	// pattern {a} is (a, a) and a pair {a, b} with a < b is (a, b).
	support := map[[2]int64]int64{}
	sales := salesRelation(d)
	for i := 0; i < sales.rows(); i++ {
		a := sales.items(i)[0]
		support[[2]int64{a, a}]++
		for j := i + 1; j < sales.rows() && sales.tid(j) == sales.tid(i); j++ {
			if b := sales.items(j)[0]; b > a {
				support[[2]int64{a, b}]++
			}
		}
	}
	dict := newPackDict(snap.Items)
	mask := uint64(1)<<dict.bits - 1
	for k := 1; k <= 2 && k <= len(snap.Levels); k++ {
		lvl := snap.Levels[k-1]
		got := map[[2]int64]int64{}
		add := func(keys []uint64, counts []int64, frequent bool) {
			for i, key := range keys {
				p := [2]int64{dict.items[key>>(uint(k-1)*dict.bits)], dict.items[key&mask]}
				if (counts[i] >= minSup) != frequent {
					t.Errorf("%s: level %d pattern %v count %d on the wrong side of %d", label, k, p, counts[i], minSup)
				}
				got[p] = counts[i]
			}
		}
		add(lvl.FreqKeys, lvl.FreqCounts, true)
		add(lvl.BorderKeys, lvl.BorderCounts, false)
		n := 0
		for p, s := range support {
			if (k == 1) != (p[0] == p[1]) {
				continue
			}
			n++
			if got[p] != s {
				t.Errorf("%s: level %d pattern %v count %d, want %d", label, k, p, got[p], s)
			}
		}
		if len(got) != n {
			t.Errorf("%s: level %d holds %d patterns, want %d", label, k, len(got), n)
		}
	}
}

// TestCountHistMatchesSort pins the histogram count to the sort-and-scan
// count, at threshold 1 (border retention) and above — and at 0, where
// keys that never occur must still stay out — and checks that
// countRows takes the histogram exactly when the domain fits the rows.
func TestCountHistMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, domain := range []uint64{1, 2, 64, 4096} {
		for _, n := range []int{0, 1, 100, 5000} {
			rows := make([]prow, n)
			for i := range rows {
				rows[i] = prow{Tid: uint64(i), Key: uint64(rng.Int63n(int64(domain)))}
			}
			for _, minSup := range []int64{0, 1, 2, 5} {
				keys := make([]uint64, n)
				for i, r := range rows {
					keys[i] = r.Key
				}
				slices.Sort(keys)
				want := packedCountRuns(keys, minSup, pkCounts{})

				got := packedCountHist(rows, make([]uint64, domain), minSup, pkCounts{})
				if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.counts, want.counts) {
					t.Fatalf("domain=%d n=%d minSup=%d: histogram %v/%v, sort %v/%v",
						domain, n, minSup, got.keys, got.counts, want.keys, want.counts)
				}

				ar := newMineArena()
				for _, d := range []uint64{domain, math.MaxUint64} {
					var skips int64
					got := countRows(slices.Clone(rows), d, minSup, ar, pkCounts{}, &skips)
					if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.counts, want.counts) {
						t.Fatalf("domain=%d n=%d minSup=%d: countRows(domain %d) disagrees with the sort", domain, n, minSup, d)
					}
					if hist := d <= uint64(n); hist && skips != 1 {
						t.Errorf("domain=%d n=%d: histogram count did not record a skipped sort", d, n)
					}
				}
				ar.release()
			}
		}
	}
}
