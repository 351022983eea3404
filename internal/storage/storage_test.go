package storage

import (
	"errors"
	"strings"
	"testing"
)

func TestMemStoreAllocateReadWrite(t *testing.T) {
	m := NewMemStore()
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("first page ID = %d, want 0", id)
	}
	var buf [PageSize]byte
	buf[0] = 0xAB
	if err := m.WritePage(id, &buf); err != nil {
		t.Fatal(err)
	}
	var out [PageSize]byte
	if err := m.ReadPage(id, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAB {
		t.Errorf("read back %x, want AB", out[0])
	}
	if m.NumPages() != 1 {
		t.Errorf("NumPages = %d, want 1", m.NumPages())
	}
}

func TestMemStoreRejectsUnallocated(t *testing.T) {
	m := NewMemStore()
	var buf [PageSize]byte
	if err := m.ReadPage(3, &buf); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := m.WritePage(3, &buf); err == nil {
		t.Error("write of unallocated page succeeded")
	}
}

func TestPoolFetchCountsHitAndMiss(t *testing.T) {
	m := NewMemStore()
	p := NewPool(m, 4)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	p.Unpin(pg)

	pg, err = p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg)
	if p.Stats.Hits != 1 {
		t.Errorf("Hits = %d, want 1 (page still cached)", p.Stats.Hits)
	}
	if p.Stats.Reads != 0 {
		t.Errorf("Reads = %d, want 0", p.Stats.Reads)
	}
}

func TestPoolEvictionWritesDirtyAndRereads(t *testing.T) {
	m := NewMemStore()
	p := NewPool(m, 2)
	// Allocate 3 pages, writing a marker in each; pool holds 2.
	var ids []PageID
	for i := 0; i < 3; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(i + 1)
		pg.MarkDirty()
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}
	if p.Stats.Writes == 0 {
		t.Error("no evictions happened with pool smaller than working set")
	}
	// Page 0 must have been evicted; fetching it is a physical read and the
	// marker must have survived.
	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if pg.Data[0] != 1 {
		t.Errorf("evicted page lost data: %d", pg.Data[0])
	}
	p.Unpin(pg)
	if p.Stats.Reads == 0 {
		t.Error("re-fetch of evicted page did not count as physical read")
	}
}

func TestPoolAllPinnedFails(t *testing.T) {
	m := NewMemStore()
	p := NewPool(m, 1)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	_ = pg // keep pinned
	if _, err := p.Allocate(); err == nil {
		t.Error("allocation succeeded with all frames pinned")
	}
}

// TestPoolExhaustedSentinel pins every frame and checks that both ways a
// page enters the pool — Allocate and a Fetch miss — fail with the named
// sentinel carrying the frame count, and that one Unpin frees a frame.
func TestPoolExhaustedSentinel(t *testing.T) {
	const frames = 4
	m := NewMemStore()
	p := NewPool(m, frames)
	var pinned []*Page
	for i := 0; i < frames; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, pg)
	}
	if got := p.PinnedFrames(); got != frames {
		t.Fatalf("PinnedFrames = %d, want %d", got, frames)
	}
	outside, err := m.Allocate() // a page the pool has never cached
	if err != nil {
		t.Fatal(err)
	}
	_, allocErr := p.Allocate()
	_, fetchErr := p.Fetch(outside)
	for name, err := range map[string]error{"Allocate": allocErr, "Fetch": fetchErr} {
		if !errors.Is(err, ErrPoolExhausted) {
			t.Errorf("%s: err = %v, want ErrPoolExhausted", name, err)
		} else if !strings.Contains(err.Error(), "4 frames") {
			t.Errorf("%s: err = %q does not name the frame count", name, err)
		}
	}
	p.Unpin(pinned[0])
	if _, err := p.Fetch(outside); err != nil {
		t.Fatalf("Fetch after Unpin: %v", err)
	}
}

func TestSequentialVsRandomAccounting(t *testing.T) {
	m := NewMemStore()
	warm := NewPool(m, 1)
	const n = 10
	for i := 0; i < n; i++ {
		pg, err := warm.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		warm.Unpin(pg)
	}
	if err := warm.Flush(); err != nil {
		t.Fatal(err)
	}

	// Sequential scan through a tiny pool: every read is a miss, and all but
	// the first are sequential.
	p := NewPool(m, 1)
	for i := 0; i < n; i++ {
		pg, err := p.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg)
	}
	if p.Stats.Reads != n {
		t.Fatalf("Reads = %d, want %d", p.Stats.Reads, n)
	}
	if p.Stats.SeqReads != n-1 {
		t.Errorf("SeqReads = %d, want %d", p.Stats.SeqReads, n-1)
	}
	if p.Stats.RandReads != 1 {
		t.Errorf("RandReads = %d, want 1", p.Stats.RandReads)
	}

	// Strided access pattern: all random.
	q := NewPool(m, 1)
	for _, id := range []PageID{0, 5, 2, 9, 4} {
		pg, err := q.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		q.Unpin(pg)
	}
	if q.Stats.RandReads != 5 {
		t.Errorf("RandReads = %d, want 5", q.Stats.RandReads)
	}
}

func TestPoolFlushAndReset(t *testing.T) {
	m := NewMemStore()
	p := NewPool(m, 8)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[7] = 0x7F
	pg.MarkDirty()
	id := pg.ID
	p.Unpin(pg)
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	if err := m.ReadPage(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 0x7F {
		t.Error("Reset did not flush dirty page")
	}
	// After reset, fetch is a physical read again.
	before := p.Stats.Reads
	pg, err = p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg)
	if p.Stats.Reads != before+1 {
		t.Error("Reset did not drop cached frames")
	}
}

func TestPageIntAccessors(t *testing.T) {
	var pg Page
	pg.PutU16(0, 0xBEEF)
	pg.PutU32(2, 0xDEADBEEF)
	pg.PutU64(6, 0x0123456789ABCDEF)
	if pg.U16(0) != 0xBEEF || pg.U32(2) != 0xDEADBEEF || pg.U64(6) != 0x0123456789ABCDEF {
		t.Error("integer accessors did not round-trip")
	}
}

func TestStatsString(t *testing.T) {
	var s Stats
	s.noteRead(0)
	s.noteRead(1)
	s.noteWrite(5)
	if s.Accesses() != 3 {
		t.Errorf("Accesses = %d, want 3", s.Accesses())
	}
	if s.String() == "" {
		t.Error("empty Stats.String()")
	}
	s.Reset()
	if s.Reads != 0 || s.Writes != 0 {
		t.Error("Reset did not zero counters")
	}
}
