package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// ErrPoolExhausted is returned, wrapped with the pool's frame count, when
// a page must enter the pool but every frame holds a pinned page.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted")

// Stats tallies logical page I/O through a buffer pool. "Random" versus
// "sequential" follows the paper's distinction: a read is sequential when it
// targets the page immediately following the previous physical read, and
// random otherwise. Hits in the buffer pool cost nothing and are counted
// separately.
type Stats struct {
	Reads           int64 // physical page reads (misses)
	SeqReads        int64 // subset of Reads that were sequential
	RandReads       int64 // subset of Reads that were random
	Writes          int64 // physical page writes
	Hits            int64 // reads satisfied by the pool
	Allocs          int64 // pages allocated
	lastReadPage    PageID
	haveLastRead    bool
	lastWrittenPage PageID
	haveLastWrite   bool
	SeqWrites       int64
	RandWrites      int64
}

// Accesses returns total physical page accesses (reads + writes), the
// quantity bounded by the formula in Section 4.3.
func (s *Stats) Accesses() int64 { return s.Reads + s.Writes }

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// String renders the counters compactly.
func (s *Stats) String() string {
	return fmt.Sprintf("reads=%d (seq=%d rand=%d) writes=%d (seq=%d rand=%d) hits=%d allocs=%d",
		s.Reads, s.SeqReads, s.RandReads, s.Writes, s.SeqWrites, s.RandWrites, s.Hits, s.Allocs)
}

func (s *Stats) noteRead(id PageID) {
	s.Reads++
	if s.haveLastRead && id == s.lastReadPage+1 {
		s.SeqReads++
	} else {
		s.RandReads++
	}
	s.lastReadPage = id
	s.haveLastRead = true
}

func (s *Stats) noteWrite(id PageID) {
	s.Writes++
	if s.haveLastWrite && id == s.lastWrittenPage+1 {
		s.SeqWrites++
	} else {
		s.RandWrites++
	}
	s.lastWrittenPage = id
	s.haveLastWrite = true
}

// Pool is a fixed-capacity LRU buffer pool over a Store. A single mutex
// serializes frame and pin accounting, so concurrent readers and writers
// — the mining executor's parallel spilled regime runs several RunWriters
// and RunReaders at once — share one pool safely. Page *contents* are not
// guarded here: a fetched page may be mutated only by the caller that
// holds its pin, which is the run/heap writers' existing single-owner
// discipline. The engine still executes queries single-threaded, as the
// paper's system did; it simply pays one uncontended lock per page op.
type Pool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	frames   map[PageID]*list.Element // -> *Page wrapped in lru entries
	lru      *list.List               // front = most recently used
	Stats    Stats

	// freeList holds page IDs returned by FreePages for reuse; freed marks
	// membership so double-frees are harmless. Reusing freed pages keeps the
	// store's footprint bounded even though Store itself is append-only.
	// Recycling is FIFO (freeHead indexes the next ID to hand out): pages
	// freed in ascending order — a spilled run, a dropped heap file — come
	// back in ascending order, so rewritten runs stay sequential on disk
	// and the paper's sequential-access economics survive page reuse.
	freeList []PageID
	freeHead int
	freed    map[PageID]bool

	// pageFree recycles evicted Page frames (the 4 KB structs, not the
	// page IDs), so a pool cycling pages through a large store does not
	// allocate — and zero — a fresh frame per miss. Capped at capacity.
	pageFree []*Page
}

type lruEntry struct {
	page *Page
}

// NewPool creates a buffer pool with the given frame capacity (minimum 1).
func NewPool(store Store, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*list.Element, capacity),
		lru:      list.New(),
	}
}

// Capacity returns the number of frames.
func (p *Pool) Capacity() int { return p.capacity }

// PinnedFrames returns the number of cached frames with a non-zero pin
// count. Tests use it to prove that error paths release every pin: a
// correct run leaves zero pinned frames behind.
func (p *Pool) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for el := p.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*lruEntry).page.pin > 0 {
			n++
		}
	}
	return n
}

// Store returns the underlying page store.
func (p *Pool) Store() Store { return p.store }

// Fetch returns the page with the given ID, pinning it. The caller must
// Unpin when done. A fetch that misses the pool performs (and counts) a
// physical read.
func (p *Pool) Fetch(id PageID) (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.frames[id]; ok {
		p.lru.MoveToFront(el)
		pg := el.Value.(*lruEntry).page
		pg.pin++
		p.Stats.Hits++
		return pg, nil
	}
	pg := p.takeFrame(id, false) // ReadPage overwrites the full frame
	if err := p.store.ReadPage(id, &pg.Data); err != nil {
		p.recycleFrame(pg)
		return nil, err
	}
	p.Stats.noteRead(id)
	if err := p.insert(pg); err != nil {
		return nil, err
	}
	pg.pin++
	return pg, nil
}

// Allocate reserves a fresh zeroed page, placing it in the pool pinned.
// Pages previously returned via FreePages are recycled before the store
// is asked to grow.
func (p *Pool) Allocate() (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var id PageID
	if p.freeHead < len(p.freeList) {
		id = p.freeList[p.freeHead]
		p.freeHead++
		delete(p.freed, id)
		// Compact once the consumed prefix dominates, so a list that
		// never fully drains cannot grow without bound; copying the live
		// tail to the front preserves FIFO order.
		if p.freeHead == len(p.freeList) {
			p.freeList = p.freeList[:0]
			p.freeHead = 0
		} else if p.freeHead > len(p.freeList)/2 {
			n := copy(p.freeList, p.freeList[p.freeHead:])
			p.freeList = p.freeList[:n]
			p.freeHead = 0
		}
	} else {
		var err error
		id, err = p.store.Allocate()
		if err != nil {
			return nil, err
		}
	}
	p.Stats.Allocs++
	pg := p.takeFrame(id, true) // a fresh page is zeroed by contract
	pg.MarkDirty()              // a new page must reach the store even if untouched
	if err := p.insert(pg); err != nil {
		return nil, err
	}
	pg.pin++
	return pg, nil
}

// FreePages returns pages to the pool for reuse by later Allocate calls,
// discarding any cached (even dirty) frames — the contents are dead by
// definition. Pinned pages and pages already freed are skipped.
func (p *Pool) FreePages(ids []PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed == nil {
		p.freed = make(map[PageID]bool)
	}
	for _, id := range ids {
		if p.freed[id] {
			continue
		}
		if el, ok := p.frames[id]; ok {
			pg := el.Value.(*lruEntry).page
			if pg.pin > 0 {
				continue // still in use somewhere; leak rather than corrupt
			}
			p.lru.Remove(el)
			delete(p.frames, id)
		}
		p.freed[id] = true
		p.freeList = append(p.freeList, id)
	}
}

// takeFrame returns a recycled Page frame (or a fresh one), reset for
// the given ID; zero clears the data for contracts that need it.
func (p *Pool) takeFrame(id PageID, zero bool) *Page {
	if n := len(p.pageFree); n > 0 {
		pg := p.pageFree[n-1]
		p.pageFree = p.pageFree[:n-1]
		pg.ID = id
		pg.pin = 0
		pg.dirty = false
		if zero {
			clear(pg.Data[:])
		}
		return pg
	}
	return &Page{ID: id}
}

// recycleFrame keeps an evicted frame for reuse, up to capacity.
func (p *Pool) recycleFrame(pg *Page) {
	if len(p.pageFree) < p.capacity {
		p.pageFree = append(p.pageFree, pg)
	}
}

func (p *Pool) insert(pg *Page) error {
	if err := p.evictIfFull(); err != nil {
		return err
	}
	el := p.lru.PushFront(&lruEntry{page: pg})
	p.frames[pg.ID] = el
	return nil
}

func (p *Pool) evictIfFull() error {
	for p.lru.Len() >= p.capacity {
		// Evict the least recently used unpinned page.
		var victim *list.Element
		for el := p.lru.Back(); el != nil; el = el.Prev() {
			if el.Value.(*lruEntry).page.pin == 0 {
				victim = el
				break
			}
		}
		if victim == nil {
			return fmt.Errorf("%w (%d frames, all pinned)", ErrPoolExhausted, p.capacity)
		}
		pg := victim.Value.(*lruEntry).page
		if pg.dirty {
			if err := p.store.WritePage(pg.ID, &pg.Data); err != nil {
				return err
			}
			p.Stats.noteWrite(pg.ID)
			pg.dirty = false
		}
		p.lru.Remove(victim)
		delete(p.frames, pg.ID)
		p.recycleFrame(pg)
	}
	return nil
}

// Unpin releases one pin on the page. Pages must be unpinned exactly once
// per Fetch/Allocate.
func (p *Pool) Unpin(pg *Page) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pg.pin > 0 {
		pg.pin--
	}
}

// Flush writes all dirty pages back to the store, leaving them cached.
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pool) flushLocked() error {
	for el := p.lru.Front(); el != nil; el = el.Next() {
		pg := el.Value.(*lruEntry).page
		if pg.dirty {
			if err := p.store.WritePage(pg.ID, &pg.Data); err != nil {
				return err
			}
			p.Stats.noteWrite(pg.ID)
			pg.dirty = false
		}
	}
	return nil
}

// Reset drops every cached frame (flushing dirty ones) and zeroes nothing
// else; Stats are preserved so callers can measure across phases.
func (p *Pool) Reset() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(); err != nil {
		return err
	}
	p.frames = make(map[PageID]*list.Element, p.capacity)
	p.lru.Init()
	return nil
}
