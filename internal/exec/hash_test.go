package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"setm/internal/tuple"
)

func TestHashJoinBasic(t *testing.T) {
	left := mem("tid,item", tuple.Ints(10, 1), tuple.Ints(10, 2), tuple.Ints(20, 1))
	right := mem("tid,item",
		tuple.Ints(10, 1), tuple.Ints(10, 2), tuple.Ints(10, 3), tuple.Ints(20, 1), tuple.Ints(20, 4))
	j := NewHashJoin(left, right, []int{0}, []int{0},
		func(l, r tuple.Tuple) (bool, error) { return r[1].Int > l[1].Int, nil })
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("HashJoin produced %d rows: %v", len(got), got)
	}
}

func TestHashJoinMatchesMergeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		var lrows, rrows []tuple.Tuple
		for i := 0; i < rng.Intn(60); i++ {
			lrows = append(lrows, tuple.Ints(rng.Int63n(8), rng.Int63n(5)))
		}
		for i := 0; i < rng.Intn(60); i++ {
			rrows = append(rrows, tuple.Ints(rng.Int63n(8), rng.Int63n(5)))
		}
		canon := func(rows []tuple.Tuple) {
			sort.Slice(rows, func(i, j int) bool { return tuple.CompareAll(rows[i], rows[j]) < 0 })
		}
		canon(lrows)
		canon(rrows)

		hj := NewHashJoin(mem("k,v", lrows...), mem("k,v", rrows...), []int{0}, []int{0}, nil)
		hjRows, err := Drain(hj)
		if err != nil {
			t.Fatal(err)
		}
		mj := NewMergeJoin(mem("k,v", lrows...), mem("k,v", rrows...), []int{0}, []int{0}, nil)
		mjRows, err := Drain(mj)
		if err != nil {
			t.Fatal(err)
		}
		if len(hjRows) != len(mjRows) {
			t.Fatalf("trial %d: hash=%d merge=%d", trial, len(hjRows), len(mjRows))
		}
		canon(hjRows)
		canon(mjRows)
		for i := range hjRows {
			if !tuple.EqualTuples(hjRows[i], mjRows[i]) {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, hjRows[i], mjRows[i])
			}
		}
	}
}

func TestHashJoinEmptyInputs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		left, right []tuple.Tuple
	}{
		{"both empty", nil, nil},
		{"left empty", nil, []tuple.Tuple{tuple.Ints(1)}},
		{"right empty", []tuple.Tuple{tuple.Ints(1)}, nil},
	} {
		j := NewHashJoin(mem("k", tc.left...), mem("k", tc.right...), []int{0}, []int{0}, nil)
		got, err := Drain(j)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: got %v", tc.name, got)
		}
	}
}

func TestHashJoinStringKeys(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindString},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	l := NewMemScan(schema, []tuple.Tuple{
		{tuple.S("a"), tuple.I(1)}, {tuple.S("b"), tuple.I(2)},
	})
	r := NewMemScan(schema, []tuple.Tuple{
		{tuple.S("b"), tuple.I(20)}, {tuple.S("c"), tuple.I(30)},
	})
	j := NewHashJoin(l, r, []int{0}, []int{0}, nil)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][1].Int != 2 || got[0][3].Int != 20 {
		t.Errorf("string-key join = %v", got)
	}
}

func TestHashGroupMatchesSortGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var rows []tuple.Tuple
	for i := 0; i < 2000; i++ {
		rows = append(rows, tuple.Ints(rng.Int63n(30), rng.Int63n(100)))
	}
	aggs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Col: 1, Name: "sum"},
		{Kind: AggMin, Col: 1, Name: "min"},
		{Kind: AggMax, Col: 1, Name: "max"},
	}
	hgRows, err := Drain(NewHashGroup(mem("k,v", rows...), []int{0}, aggs))
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]tuple.Tuple(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0].Int < sorted[j][0].Int })
	sgRows, err := Drain(NewSortGroup(mem("k,v", sorted...), []int{0}, aggs))
	if err != nil {
		t.Fatal(err)
	}
	// Same groups, same aggregates, same (ascending) order.
	wantRows(t, hgRows, sgRows, "hash vs sort group")
}

// TestHashGroupMultiKeyMatchesSortGroup groups a multi-page heap file on
// two columns: the output must equal sort+SortGroup row for row.
func TestHashGroupMultiKeyMatchesSortGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows []tuple.Tuple
	for i := 0; i < 5000; i++ {
		rows = append(rows, tuple.Ints(rng.Int63n(97), rng.Int63n(13), rng.Int63n(1000)))
	}
	f := heapFile(t, tuple.IntSchema("a", "b", "v"), rows)
	specs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Col: 2, Name: "s"},
		{Kind: AggMin, Col: 2, Name: "mn"},
		{Kind: AggMax, Col: 2, Name: "mx"},
	}
	groupCols := []int{0, 1}
	sorted := NewSortKeys(NewHeapScan(f), []SortKey{{Col: 0}, {Col: 1}}, nil, 0)
	want, err := Drain(NewSortGroup(sorted, groupCols, specs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(NewHashGroup(NewHeapScan(f), groupCols, specs))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, got, want, "multi-key hash group")
}

func TestHashGroupEmptyAndReopen(t *testing.T) {
	g := NewHashGroup(mem("k"), []int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty hash group = %v", got)
	}
	// A re-opened group rebuilds its table from scratch.
	g = NewHashGroup(mem("k", tuple.Ints(4), tuple.Ints(4)), []int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	for pass := 0; pass < 2; pass++ {
		got, err := Drain(g)
		if err != nil {
			t.Fatal(err)
		}
		wantRows(t, got, []tuple.Tuple{tuple.Ints(4, 2)}, fmt.Sprintf("pass %d", pass))
	}
}

func TestHashGroupDeterministicOrder(t *testing.T) {
	// Groups come out ascending on the group columns, whatever the input
	// order.
	rows := []tuple.Tuple{tuple.Ints(5), tuple.Ints(3), tuple.Ints(5), tuple.Ints(9)}
	g := NewHashGroup(mem("k", rows...), []int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, got, []tuple.Tuple{tuple.Ints(3, 1), tuple.Ints(5, 2), tuple.Ints(9, 1)}, "hash group order")
}

func TestHashGroupRejectsStringKeys(t *testing.T) {
	s := NewMemScan(tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindString}),
		[]tuple.Tuple{{tuple.S("a")}})
	if _, err := Drain(NewHashGroup(s, []int{0}, []AggSpec{{Kind: AggCount}})); err == nil {
		t.Error("hash group over a string column succeeded")
	}
}

// FuzzExecHashGroup feeds random (trans_id, item) tables through the
// operators the planner chooses between and checks each against its
// reference: HashGroup vs sort+SortGroup (exact rows and order), and the
// merge join with its pushed-down GT residual vs a nested-loop join.
func FuzzExecHashGroup(f *testing.F) {
	f.Add(int64(1), uint8(50))
	f.Add(int64(2), uint8(3))
	f.Add(int64(3), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, keyDomain uint8) {
		dom := int64(keyDomain)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(1800) // up to ~8 heap pages; the nested loop is quadratic
		rows := make([]tuple.Tuple, 0, n)
		tid := int64(0)
		for len(rows) < n {
			tid += 1 + rng.Int63n(2)
			run := 1 + rng.Intn(4)
			for j := 0; j < run && len(rows) < n; j++ {
				rows = append(rows, tuple.Ints(tid, rng.Int63n(dom)))
			}
		}
		hf := heapFile(t, tuple.IntSchema("trans_id", "item"), rows)

		specs := []AggSpec{
			{Kind: AggCount, Name: "cnt"},
			{Kind: AggSum, Col: 0, Name: "s"},
			{Kind: AggMin, Col: 0, Name: "mn"},
			{Kind: AggMax, Col: 0, Name: "mx"},
		}
		sorted := NewSortKeys(NewHeapScan(hf), []SortKey{{Col: 1}}, nil, 0)
		wantG, err := Drain(NewSortGroup(sorted, []int{1}, specs))
		if err != nil {
			t.Fatal(err)
		}
		gotG, err := Drain(NewHashGroup(NewHeapScan(hf), []int{1}, specs))
		if err != nil {
			t.Fatal(err)
		}
		wantRows(t, gotG, wantG, "fuzz hash group")

		nl := NewNestedLoopJoin(NewHeapScan(hf), NewHeapScan(hf), func(l, r tuple.Tuple) (bool, error) {
			return l[0].Int == r[0].Int && r[1].Int > l[1].Int, nil
		})
		wantJ, err := Drain(nl)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMergeJoin(NewHeapScan(hf), NewHeapScan(hf), []int{0}, []int{0}, nil)
		m.SetVecResidualGT(1, 1)
		gotJ, err := Drain(m)
		if err != nil {
			t.Fatal(err)
		}
		wantRows(t, gotJ, wantJ, "fuzz merge join")
	})
}
