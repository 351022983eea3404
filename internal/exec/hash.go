package exec

import (
	"fmt"
	"io"
	"slices"

	"setm/internal/tuple"
)

// HashJoin is an equi-join that builds an in-memory hash table on the
// right input and probes it with the left. The paper predates the
// ubiquity of hash joins in commercial optimizers; the cost-based planner
// picks it when the build side is small and the inputs are not already
// sorted on the join keys — SETM's support-filter join (R'_k ⋈ C_k) is the
// canonical case. Because each left row's matches are emitted
// contiguously in left order, the output preserves any ordering of the
// left input on left columns.
type HashJoin struct {
	left, right Operator
	leftKeys    []int
	rightKeys   []int
	residual    JoinPredicate
	schema      *tuple.Schema

	buildHint int // expected build rows, pre-sizes store and table

	leftB BatchOperator
	store *tuple.Batch       // materialized right input
	table map[string][]int32 // key bytes -> right row indexes

	lcur    batchCursor
	bucket  []int32
	bi      int
	probing bool // bucket/bi are valid for the current left row

	keyBuf             []byte
	out                *tuple.Batch
	lscratch, rscratch tuple.Tuple
	rows               rowCursor

	stats OpStats
}

// NewHashJoin joins left and right on equality of the key columns.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int, residual JoinPredicate) *HashJoin {
	return &HashJoin{
		left:      left,
		right:     right,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		residual:  residual,
		schema:    left.Schema().Concat(right.Schema()),
		leftB:     asBatchOp(left),
	}
}

func (h *HashJoin) Schema() *tuple.Schema { return h.schema }

// SetBuildSizeHint pre-sizes the build-side store and hash table for n
// rows.
func (h *HashJoin) SetBuildSizeHint(n int) { h.buildHint = n }

// appendKey serializes the key columns of b's logical row i into buf.
func appendKey(buf []byte, b *tuple.Batch, i int, cols []int) ([]byte, error) {
	phys := b.RowIdx(i)
	for _, c := range cols {
		col := &b.Cols[c]
		switch col.Kind {
		case tuple.KindInt:
			v := col.I[phys]
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(v>>s))
			}
		case tuple.KindString:
			buf = append(buf, col.S[phys]...)
			buf = append(buf, 0)
		default:
			return nil, fmt.Errorf("exec: unhashable value kind %v", col.Kind)
		}
	}
	return buf, nil
}

func (h *HashJoin) Open() error {
	h.stats.Reset()
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	h.store = tuple.NewBatch(h.right.Schema())
	if h.buildHint > 0 {
		h.store.Grow(h.buildHint)
	}
	rightB := asBatchOp(h.right)
	for {
		b, err := rightB.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		h.store.Append(b)
	}
	h.table = make(map[string][]int32, h.buildHint)
	for i := 0; i < h.store.Len(); i++ {
		var err error
		h.keyBuf, err = appendKey(h.keyBuf[:0], h.store, i, h.rightKeys)
		if err != nil {
			return err
		}
		h.table[string(h.keyBuf)] = append(h.table[string(h.keyBuf)], int32(i))
	}
	h.lcur.reset(h.leftB)
	h.probing = false
	h.rows.reset()
	return nil
}

func (h *HashJoin) Close() error {
	err1 := h.left.Close()
	err2 := h.right.Close()
	h.table = nil
	h.store = nil
	if err1 != nil {
		return err1
	}
	return err2
}

func (h *HashJoin) nextBatch() (*tuple.Batch, error) {
	if h.out == nil {
		h.out = tuple.NewBatch(h.schema)
	}
	h.out.Reset()
	for h.out.Len() < tuple.BatchSize {
		ok, err := h.lcur.ensure()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !h.probing {
			h.keyBuf, err = appendKey(h.keyBuf[:0], h.lcur.b, h.lcur.i, h.leftKeys)
			if err != nil {
				return nil, err
			}
			h.bucket = h.table[string(h.keyBuf)]
			h.bi = 0
			h.probing = true
		}
		for h.bi < len(h.bucket) && h.out.Len() < tuple.BatchSize {
			ri := int(h.bucket[h.bi])
			pass := true
			if h.residual != nil {
				if h.lscratch == nil {
					h.lscratch = make(tuple.Tuple, h.left.Schema().Len())
					h.rscratch = make(tuple.Tuple, h.right.Schema().Len())
				}
				pass, err = h.residual(h.lcur.b.RowInto(h.lscratch, h.lcur.i), h.store.RowInto(h.rscratch, ri))
				if err != nil {
					return nil, err
				}
			}
			if pass {
				appendJoinRow(h.out, h.lcur.b, h.lcur.i, h.store, ri)
			}
			h.bi++
		}
		if h.bi >= len(h.bucket) {
			h.lcur.i++
			h.probing = false
		} else {
			break
		}
	}
	if h.out.Len() == 0 {
		return nil, io.EOF
	}
	return h.out, nil
}

func (h *HashJoin) Next() (tuple.Tuple, error) { return h.rows.next(h.NextBatch) }

// HashGroup computes grouped aggregates with an in-memory hash table
// instead of a pre-sorted input. Where SortGroup needs its input sorted on
// the group columns (and the planner pays a full materializing sort for
// it), HashGroup aggregates unsorted input into an open-addressing table
// keyed by the group columns and sorts only the distinct groups for
// emission. Output is identical to sort+SortGroup — groups ascending on
// the group columns, same aggregate values — at O(rows + groups·log
// groups) instead of O(rows·log rows). Group columns and SUM/MIN/MAX
// arguments must be integers.
type HashGroup struct {
	child     Operator
	groupCols []int
	aggs      []AggSpec
	schema    *tuple.Schema

	childB BatchOperator
	table  *groupTable
	perm   []int32
	pos    int
	out    *tuple.Batch
	rows   rowCursor

	stats OpStats
}

// NewHashGroup groups child on groupCols (all integer), computing aggs.
func NewHashGroup(child Operator, groupCols []int, aggs []AggSpec) *HashGroup {
	in := child.Schema()
	cols := make([]tuple.Column, 0, len(groupCols)+len(aggs))
	for _, gc := range groupCols {
		cols = append(cols, in.Cols[gc])
	}
	for _, a := range aggs {
		name := a.Name
		if name == "" {
			name = "agg"
		}
		cols = append(cols, tuple.Column{Name: name, Kind: tuple.KindInt})
	}
	return &HashGroup{
		child:     child,
		groupCols: groupCols,
		aggs:      aggs,
		schema:    tuple.NewSchema(cols...),
		childB:    asBatchOp(child),
	}
}

func (g *HashGroup) Schema() *tuple.Schema { return g.schema }

// Child returns the wrapped input.
func (g *HashGroup) Child() Operator { return g.child }

func (g *HashGroup) Open() error {
	g.stats.Reset()
	g.rows.reset()
	g.table, g.perm, g.pos = nil, nil, 0
	if err := g.child.Open(); err != nil {
		return err
	}
	t, err := g.build()
	if cerr := g.child.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// Emission order: groups ascending on the group columns, which is what
	// the equivalent sort+SortGroup plan emits.
	g.table = t
	g.perm = make([]int32, t.slots())
	for i := range g.perm {
		g.perm[i] = int32(i)
	}
	slices.SortFunc(g.perm, func(a, b int32) int {
		for k := 0; k < t.nkeys; k++ {
			av, bv := t.keys[k][a], t.keys[k][b]
			if av != bv {
				if av < bv {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	if g.out == nil {
		g.out = tuple.NewBatch(g.schema)
	}
	return nil
}

// build aggregates the opened child into a fresh table.
func (g *HashGroup) build() (*groupTable, error) {
	t := newGroupTable(len(g.groupCols), len(g.aggs))
	key := make([]int64, len(g.groupCols))
	for {
		b, err := g.childB.NextBatch()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		for _, gc := range g.groupCols {
			if b.Cols[gc].Kind != tuple.KindInt {
				return nil, fmt.Errorf("exec: hash group over non-integer column %d", gc)
			}
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			phys := b.RowIdx(i)
			for k, gc := range g.groupCols {
				key[k] = b.Cols[gc].I[phys]
			}
			s := t.lookup(key)
			first := t.counts[s] == 0
			t.counts[s]++
			for ai, a := range g.aggs {
				if a.Kind == AggCount {
					continue
				}
				col := &b.Cols[a.Col]
				if col.Kind != tuple.KindInt {
					return nil, fmt.Errorf("exec: aggregate over non-integer column %d", a.Col)
				}
				v := col.I[phys]
				if first {
					t.sums[ai][s], t.mins[ai][s], t.maxs[ai][s] = v, v, v
					continue
				}
				t.sums[ai][s] += v
				t.mins[ai][s] = min(t.mins[ai][s], v)
				t.maxs[ai][s] = max(t.maxs[ai][s], v)
			}
		}
	}
}

func (g *HashGroup) nextBatch() (*tuple.Batch, error) {
	if g.table == nil || g.pos >= len(g.perm) {
		return nil, io.EOF
	}
	t := g.table
	g.out.Reset()
	end := min(g.pos+tuple.BatchSize, len(g.perm))
	g.out.Grow(end - g.pos)
	for ; g.pos < end; g.pos++ {
		s := int(g.perm[g.pos])
		for k := 0; k < t.nkeys; k++ {
			g.out.Cols[k].I = append(g.out.Cols[k].I, t.keys[k][s])
		}
		base := t.nkeys
		for ai, a := range g.aggs {
			var v int64
			switch a.Kind {
			case AggCount:
				v = t.counts[s]
			case AggSum:
				v = t.sums[ai][s]
			case AggMin:
				v = t.mins[ai][s]
			case AggMax:
				v = t.maxs[ai][s]
			}
			g.out.Cols[base+ai].I = append(g.out.Cols[base+ai].I, v)
		}
		g.out.BumpRow()
	}
	return g.out, nil
}

func (g *HashGroup) Next() (tuple.Tuple, error) { return g.rows.next(g.NextBatch) }

func (g *HashGroup) Close() error {
	g.table, g.perm = nil, nil
	return nil
}

// groupTable is an open-addressing hash table from an all-integer group
// key to a slot of aggregate state. Keys and states are stored columnar;
// buckets hold slot indexes.
type groupTable struct {
	nkeys int
	naggs int

	keys   [][]int64 // nkeys slices, slot-indexed
	counts []int64
	sums   [][]int64 // naggs slices
	mins   [][]int64
	maxs   [][]int64

	buckets []int32 // power of two; -1 = empty
	mask    uint64
}

func newGroupTable(nkeys, naggs int) *groupTable {
	t := &groupTable{nkeys: nkeys, naggs: naggs}
	t.keys = make([][]int64, nkeys)
	t.sums = make([][]int64, naggs)
	t.mins = make([][]int64, naggs)
	t.maxs = make([][]int64, naggs)
	t.rehash(1 << 10)
	return t
}

func (t *groupTable) slots() int { return len(t.counts) }

func (t *groupTable) rehash(n int) {
	t.buckets = make([]int32, n)
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	t.mask = uint64(n - 1)
	key := make([]int64, t.nkeys)
	for s := 0; s < t.slots(); s++ {
		for k := range key {
			key[k] = t.keys[k][s]
		}
		h := hashKey(key) & t.mask
		for t.buckets[h] != -1 {
			h = (h + 1) & t.mask
		}
		t.buckets[h] = int32(s)
	}
}

func hashKey(key []int64) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range key {
		h ^= uint64(v)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// lookup finds or creates the slot for key.
func (t *groupTable) lookup(key []int64) int {
	h := hashKey(key) & t.mask
	for {
		s := t.buckets[h]
		if s == -1 {
			break
		}
		match := true
		for k := 0; k < t.nkeys; k++ {
			if t.keys[k][s] != key[k] {
				match = false
				break
			}
		}
		if match {
			return int(s)
		}
		h = (h + 1) & t.mask
	}
	// Insert a fresh slot.
	s := t.slots()
	for k := 0; k < t.nkeys; k++ {
		t.keys[k] = append(t.keys[k], key[k])
	}
	t.counts = append(t.counts, 0)
	for a := 0; a < t.naggs; a++ {
		t.sums[a] = append(t.sums[a], 0)
		t.mins[a] = append(t.mins[a], 0)
		t.maxs[a] = append(t.maxs[a], 0)
	}
	t.buckets[h] = int32(s)
	if uint64(t.slots())*4 > uint64(len(t.buckets))*3 {
		t.rehash(len(t.buckets) * 2)
	}
	return s
}
