// Package heap implements append-only record files ("heap files") over the
// paged storage layer. A heap file stores tuples of a fixed schema packed
// into a chain of pages; it supports appending and full sequential scans,
// which are the only access paths SETM needs for its R_k relations.
//
// Page layout:
//
//	offset 0:  u32 next page ID (InvalidPage at the tail)
//	offset 4:  u16 record count
//	offset 6:  u16 free offset (where the next record starts)
//	offset 8+: records, each prefixed by a u16 length
package heap

import (
	"fmt"
	"io"

	"setm/internal/storage"
	"setm/internal/tuple"
)

const (
	hdrNext  = 0
	hdrCount = 4
	hdrFree  = 6
	hdrSize  = 8
)

// File is a heap file: a linked list of record pages in a shared pool.
type File struct {
	pool   *storage.Pool
	schema *tuple.Schema

	first   storage.PageID
	last    storage.PageID
	pages   int
	rows    int64
	pageIDs []storage.PageID // every page of the chain, in order, for Free
}

// Create allocates an empty heap file with the given tuple schema.
func Create(pool *storage.Pool, schema *tuple.Schema) (*File, error) {
	pg, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(pg)
	id := pg.ID
	pool.Unpin(pg)
	return &File{pool: pool, schema: schema, first: id, last: id, pages: 1,
		pageIDs: []storage.PageID{id}}, nil
}

func initPage(pg *storage.Page) {
	pg.PutU32(hdrNext, uint32(storage.InvalidPage))
	pg.PutU16(hdrCount, 0)
	pg.PutU16(hdrFree, hdrSize)
	pg.MarkDirty()
}

// Schema returns the tuple schema of the file.
func (f *File) Schema() *tuple.Schema { return f.schema }

// Rows returns the number of tuples appended.
func (f *File) Rows() int64 { return f.rows }

// Pages returns the number of pages the file occupies. This is the
// quantity written ‖R_k‖ in the paper's I/O analysis.
func (f *File) Pages() int { return f.pages }

// SizeBytes returns the storage footprint in bytes (pages × page size).
func (f *File) SizeBytes() int64 { return int64(f.pages) * storage.PageSize }

// Append adds one tuple at the end of the file.
func (f *File) Append(t tuple.Tuple) error {
	need := tuple.EncodedSize(f.schema, t) + 2
	if need > storage.PageSize-hdrSize {
		return fmt.Errorf("heap: tuple of %d bytes exceeds page capacity", need)
	}
	pg, err := f.pool.Fetch(f.last)
	if err != nil {
		return err
	}
	free := int(pg.U16(hdrFree))
	if free+need > storage.PageSize {
		// Chain a new page.
		npg, err := f.pool.Allocate()
		if err != nil {
			f.pool.Unpin(pg)
			return err
		}
		initPage(npg)
		pg.PutU32(hdrNext, uint32(npg.ID))
		pg.MarkDirty()
		f.pool.Unpin(pg)
		pg = npg
		f.last = npg.ID
		f.pages++
		f.pageIDs = append(f.pageIDs, npg.ID)
		free = hdrSize
	}
	enc, err := tuple.Encode(pg.Data[free+2:free+2], f.schema, t)
	if err != nil {
		f.pool.Unpin(pg)
		return err
	}
	pg.PutU16(free, uint16(len(enc)))
	// Encode wrote into the page buffer via the sub-slice only if capacity
	// allowed; copy explicitly to be safe against reallocation.
	copy(pg.Data[free+2:], enc)
	pg.PutU16(hdrFree, uint16(free+2+len(enc)))
	pg.PutU16(hdrCount, pg.U16(hdrCount)+1)
	pg.MarkDirty()
	f.pool.Unpin(pg)
	f.rows++
	return nil
}

// AppendAll appends every tuple in ts.
func (f *File) AppendAll(ts []tuple.Tuple) error {
	for _, t := range ts {
		if err := f.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// AppendBatch appends every logical row of b, encoding column vectors
// straight into page buffers — the bulk path of the vectorized executor,
// which skips the per-row tuple materialization of Append.
func (f *File) AppendBatch(b *tuple.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	pg, err := f.pool.Fetch(f.last)
	if err != nil {
		return err
	}
	free := int(pg.U16(hdrFree))
	for i := 0; i < n; i++ {
		need := b.EncodedRowSize(i) + 2
		if need > storage.PageSize-hdrSize {
			f.pool.Unpin(pg)
			return fmt.Errorf("heap: tuple of %d bytes exceeds page capacity", need)
		}
		if free+need > storage.PageSize {
			npg, err := f.pool.Allocate()
			if err != nil {
				f.pool.Unpin(pg)
				return err
			}
			initPage(npg)
			pg.PutU16(hdrFree, uint16(free))
			pg.PutU32(hdrNext, uint32(npg.ID))
			pg.MarkDirty()
			f.pool.Unpin(pg)
			pg = npg
			f.last = npg.ID
			f.pages++
			f.pageIDs = append(f.pageIDs, npg.ID)
			free = hdrSize
		}
		enc := b.EncodeRowTo(pg.Data[free+2:free+2], i)
		pg.PutU16(free, uint16(len(enc)))
		copy(pg.Data[free+2:], enc)
		free += 2 + len(enc)
		pg.PutU16(hdrCount, pg.U16(hdrCount)+1)
		f.rows++
	}
	pg.PutU16(hdrFree, uint16(free))
	pg.MarkDirty()
	f.pool.Unpin(pg)
	return nil
}

// Free returns every page of the file to the pool's free list. The caller
// must guarantee no scanner or operator still references the file —
// recycled pages would be decoded as foreign rows. The engine satisfies
// this by executing statements one at a time: Free runs only from DROP
// TABLE / DELETE FROM / table replacement, never with a query in flight.
// Freeing keeps dropped intermediates from growing the store without
// bound.
func (f *File) Free() {
	f.pool.FreePages(f.pageIDs)
	f.pageIDs = nil
	f.pages = 0
	f.rows = 0
}

// Scanner iterates a heap file front to back. Next returns io.EOF after
// the final tuple.
type Scanner struct {
	file *File
	pg   *storage.Page
	idx  int
	off  int
	done bool

	pageIdx int // index into file.pageIDs of the current page
	endIdx  int // page count when the scan started
}

// Scan returns a scanner positioned before the first tuple.
func (f *File) Scan() *Scanner {
	return &Scanner{file: f, endIdx: len(f.pageIDs), done: len(f.pageIDs) == 0}
}

// advance pins the next page, releasing the current one. Returns false
// when the scan is exhausted (done is set).
func (s *Scanner) advance() (bool, error) {
	if s.pg != nil {
		s.file.pool.Unpin(s.pg)
		s.pg = nil
		s.pageIdx++
	}
	if s.pageIdx >= s.endIdx {
		s.done = true
		return false, nil
	}
	pg, err := s.file.pool.Fetch(s.file.pageIDs[s.pageIdx])
	if err != nil {
		s.done = true
		return false, err
	}
	s.pg = pg
	s.idx = 0
	s.off = hdrSize
	return true, nil
}

// Next returns the next tuple, or io.EOF when exhausted.
func (s *Scanner) Next() (tuple.Tuple, error) {
	if s.done {
		return nil, io.EOF
	}
	for {
		if s.pg == nil {
			ok, err := s.advance()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, io.EOF
			}
		}
		if s.idx < int(s.pg.U16(hdrCount)) {
			n := int(s.pg.U16(s.off))
			rec := s.pg.Data[s.off+2 : s.off+2+n]
			t, _, err := tuple.Decode(rec, s.file.schema)
			if err != nil {
				return nil, err
			}
			s.off += 2 + n
			s.idx++
			return t, nil
		}
		if ok, err := s.advance(); err != nil {
			return nil, err
		} else if !ok {
			return nil, io.EOF
		}
	}
}

// NextBatch decodes up to max further tuples directly into b's column
// vectors (appending to its current contents) and reports how many were
// added. It returns io.EOF only when the file is exhausted and no rows
// were added.
func (s *Scanner) NextBatch(b *tuple.Batch, max int) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	added := 0
	for added < max {
		if s.pg == nil {
			ok, err := s.advance()
			if err != nil {
				return added, err
			}
			if !ok {
				if added == 0 {
					return 0, io.EOF
				}
				return added, nil
			}
		}
		count := int(s.pg.U16(hdrCount))
		for s.idx < count && added < max {
			n := int(s.pg.U16(s.off))
			rec := s.pg.Data[s.off+2 : s.off+2+n]
			if _, err := b.AppendEncoded(rec); err != nil {
				return added, err
			}
			s.off += 2 + n
			s.idx++
			added++
		}
		if s.idx < count {
			return added, nil // batch full mid-page
		}
		if ok, err := s.advance(); err != nil {
			return added, err
		} else if !ok {
			if added == 0 {
				return 0, io.EOF
			}
			return added, nil
		}
	}
	return added, nil
}

// Close releases any pinned page; safe to call multiple times.
func (s *Scanner) Close() {
	if s.pg != nil {
		s.file.pool.Unpin(s.pg)
		s.pg = nil
	}
	s.done = true
}

// ReadAll scans the whole file into memory; intended for tests and small
// relations such as the C_k count tables.
func (f *File) ReadAll() ([]tuple.Tuple, error) {
	sc := f.Scan()
	defer sc.Close()
	var out []tuple.Tuple
	for {
		t, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}
