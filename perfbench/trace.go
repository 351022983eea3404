package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary. Spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Op     int    `json:"op"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: recording into it, and summing it, are no-ops.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a span whose bounds the caller measured: an iteration
// reported by the program's per-iteration observer when it completes.
func (t *tracer) add(op, parent int, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// rename relabels span id once its class is known.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in nanoseconds: for every
// span, its duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans {
		out[layerOf(s.Name)] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// sumByName totals the durations of the spans with the given name.
func (t *tracer) sumByName(name string) int64 {
	if t == nil {
		return 0
	}
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return total
}

// dump writes the spans as JSON lines to dir/<workload>-seed<n>.jsonl.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// reportSelfTimes sets <layer>.self_ms for the traced layers, per op.
func reportSelfTimes(rep *report, t *tracer, ops int) {
	self := t.selfTimes()
	for _, layer := range []string{"bench", "core", "engine", "server"} {
		rep.set(layer+".self_ms", ratio(float64(self[layer]), float64(ops))/1e6)
	}
}
