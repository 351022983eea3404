package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"setm/internal/core"
	"setm/internal/server"
)

// setmdRun is one setmd-mixed run: a durable in-process setmd on a
// loopback listener, the retail base uploaded, and the client state of
// the request mix.
//
// Versions: every refresh appends the next slice of the prefix-stable
// continuation to the base and becomes the head; the previous head is
// then deleted. (setmd refuses to delete a version that has a derived
// child, so a chain base -> v1 -> v2 could never shrink; appending each
// slice to the base keeps exactly two versions live.)
type setmdRun struct {
	cfg   *config
	base  *core.Dataset
	cont  []core.Transaction // continuation, refreshTxns per refresh
	cref  int64              // support count of hits and refreshes (0.1%)
	rng   *rand.Rand         // cold support counts; guarded by mu
	input int64              // SALES bytes uploaded and appended

	dir     string
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	clients []*http.Client
	baseVer string

	mu         sync.Mutex
	pinsFreed  *sync.Cond
	head       string
	slices     map[string]int // version -> continuation slice (-1: the base)
	pins       map[string]int // requests in flight per version
	usedCounts map[string]map[int64]bool
	nextSlice  int
	refreshMu  sync.Mutex // one refresh at a time

	uploadMs float64 // this set-up's base upload
}

// reqRec is one request of the mix as the client saw it.
type reqRec struct {
	kind            string // hit, cold, refresh
	due, sent, done time.Time
	err             error
	version         string
	slice           int
	count           int64
	jobID           string
	digest          [32]byte
	result          []byte                   // GET /jobs/{id}/result body, decoded after the window
	routes          map[string]time.Duration // server call -> client-side time
	iters           []iterRow
	deletedAfter    string // refresh: the superseded head it deleted
}

// iterRow is one iteration row of GET /jobs/{id}.
type iterRow struct {
	K          int    `json:"k"`
	RPrimeRows int64  `json:"r_prime_rows"`
	RRows      int64  `json:"r_rows"`
	Plan       string `json:"plan"`
	DurationUs int64  `json:"duration_us"`
}

type jobStatus struct {
	ID         string    `json:"id"`
	State      string    `json:"state"`
	Cached     bool      `json:"cached"`
	Error      string    `json:"error"`
	Iterations []iterRow `json:"iterations"`
}

func runSetmdMixed(cfg *config) (*report, error) {
	rep := newReport()
	s := cfg.size
	blockLen := float64(s.mix.hit + s.mix.cold + s.mix.refresh)
	maxRefreshes := int(s.rate*cfg.window.Seconds()*float64(s.mix.refresh)/blockLen) + 10

	var r *setmdRun
	var setupS, uploadMs []float64
	for i := 0; i < s.setups; i++ {
		if r != nil {
			if err := r.teardown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		r, err = newSetmdRun(cfg, maxRefreshes)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		uploadMs = append(uploadMs, r.uploadMs)
	}
	defer r.teardown()
	rep.set("setup_s", median(setupS))
	rep.notef("shape: base txns=%d |R_1|=%d minsup_count=%d refresh slice=%d txns rate=%.1f/s mix hit/cold/refresh=%d/%d/%d connections=%d slo=%.0fms fsync=on",
		len(r.base.Transactions), fresh(r.base).NumSalesRows(), r.cref, s.refreshTxns,
		s.rate, s.mix.hit, s.mix.cold, s.mix.refresh, s.conns, s.sloLimitMs)

	var plain, traced *window
	var plainRecs, tracedRecs []*reqRec
	var tr *tracer
	if !cfg.trace {
		plain, plainRecs = r.openLoop(cfg.window, nil, 1)
	} else {
		plain, plainRecs = r.openLoop(cfg.window/2, nil, 1)
	}
	m1, err := r.metrics()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		tr = newTracer()
		traced, tracedRecs = r.openLoop(cfg.window/2, tr, 2)
	}
	mEnd, err := r.metrics()
	if err != nil {
		return nil, err
	}

	// Every result is checked against a library MineAuto of the same
	// version's transactions, outside the timed window.
	if err := r.verify(append(append([]*reqRec(nil), plainRecs...), tracedRecs...)); err != nil {
		return nil, err
	}
	plain.tallyRecs(plainRecs)
	plain.fill(rep)
	kindFigures(rep, plainRecs, s.sloLimitMs)

	// End-of-run invariants, once every request has completed.
	rep.check(plain.inflightMax <= s.conns, "%d requests in flight, want at most %d", plain.inflightMax, s.conns)
	rep.check(mEnd["pool_pinned_frames"] == 0, "setmd pool_pinned_frames = %d, want 0", mEnd["pool_pinned_frames"])
	rep.check(mEnd["admission_used_bytes"] == 0, "setmd admission_used_bytes = %d, want 0", mEnd["admission_used_bytes"])
	rep.check(mEnd["wal_append_errors"] == 0, "setmd wal_append_errors = %d, want 0", mEnd["wal_append_errors"])
	rep.check(mEnd["persist_errors"] == 0, "setmd persist_errors = %d, want 0", mEnd["persist_errors"])

	diskBytes, recoverS, err := r.recoverCheck(append(append([]*reqRec(nil), plainRecs...), tracedRecs...))
	if err != nil {
		rep.check(false, "recovery: %v", err)
	}
	rep.set("recover_s", recoverS)
	rep.set("disk_bytes_per_input_byte", ratio(float64(diskBytes), float64(r.input)))
	if !cfg.trace {
		rep.notef("setmd: hit_ms_p50=%.3f cold_ms_p50=%.3f refresh_ms_p50=%.3f slo_ok_ratio=%.4f recover_s=%.4f disk_bytes_per_input_byte=%.3f",
			rep.values["hit_ms_p50"], rep.values["cold_ms_p50"], rep.values["refresh_ms_p50"],
			rep.values["slo_ok_ratio"], recoverS, rep.values["disk_bytes_per_input_byte"])
		return rep, nil
	}

	traced.tallyRecs(tracedRecs)
	traced.tally(rep, "traced")
	rep.set("trace.overhead_ms", median(traced.lat)-median(plain.lat))
	rep.set("server.upload_ms_p50", median(uploadMs))
	r.serverFigures(rep, tracedRecs, m1, mEnd)
	reportSelfTimes(rep, tr, traced.attempted)
	path, err := tr.dump(cfg.out+"/traces", cfg.workload, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.notef("spans: %s", path)
	return rep, nil
}

// newSetmdRun is one set-up: generate the inputs, mine the reference,
// start a durable setmd on a fresh data directory, upload the base and
// mine it once, which caches the result the hits read and the border
// the refreshes patch.
func newSetmdRun(cfg *config, maxRefreshes int) (_ *setmdRun, err error) {
	s := cfg.size
	n := s.retail.NumTransactions
	all := retailInput(s, n+maxRefreshes*s.refreshTxns, cfg.seed)
	r := &setmdRun{
		cfg:        cfg,
		base:       &core.Dataset{Transactions: all.Transactions[:n:n]},
		cont:       all.Transactions[n:],
		rng:        rand.New(rand.NewSource(cfg.seed)),
		slices:     map[string]int{},
		pins:       map[string]int{},
		usedCounts: map[string]map[int64]bool{},
	}
	r.pinsFreed = sync.NewCond(&r.mu)
	r.cref = core.Options{MinSupportFrac: s.retailMinsup}.ResolveMinSupport(n)
	ref, err := r.reference(-1, r.cref)
	if err != nil {
		return nil, err
	}

	r.dir, err = runDir(cfg, "setmd")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			r.teardown()
		}
	}()
	if err := r.start(); err != nil {
		return nil, err
	}
	for i := 0; i < s.conns; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	c := r.clients[0]
	body := salesText(r.base.Transactions)
	t0 := time.Now()
	out, err := r.call(c, "POST", "/datasets", body)
	if err != nil {
		return nil, fmt.Errorf("upload base: %w", err)
	}
	r.uploadMs = ms(time.Since(t0))
	r.input += int64(len(body))
	var ds struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(out, &ds); err != nil {
		return nil, fmt.Errorf("upload base: %w", err)
	}
	r.baseVer, r.head = ds.Version, ds.Version
	r.slices[ds.Version] = -1
	for i := 0; i < 1+s.warmups; i++ {
		kind := "hit"
		if i == 0 {
			kind = "cold"
		}
		rec := &reqRec{kind: kind, version: r.head, slice: -1, count: r.cref, routes: map[string]time.Duration{}}
		r.mine(c, rec, nil, 0, 0)
		if rec.err != nil {
			return nil, fmt.Errorf("warm-up mine: %w", rec.err)
		}
		if rec.digest, err = resultDigest(rec.result); err != nil {
			return nil, err
		}
		if rec.digest != ref {
			return nil, fmt.Errorf("warm-up mine differs from the library MineAuto reference")
		}
	}
	return r, nil
}

// start opens the durable server on r.dir and serves it on loopback.
func (r *setmdRun) start() error {
	srv, err := server.Open(server.Config{DataDir: r.dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	r.srv = srv
	r.hs = &http.Server{Handler: srv}
	r.served = make(chan struct{})
	r.url = "http://" + ln.Addr().String()
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return nil
}

// stop drains the server's jobs, stops serving and closes the WAL.
func (r *setmdRun) stop() error {
	if r.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r.srv.Drain(ctx)
	err := r.hs.Shutdown(ctx)
	<-r.served
	if cerr := r.srv.Close(); err == nil {
		err = cerr
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.srv = nil
	return err
}

func (r *setmdRun) teardown() error {
	err := r.stop()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// call sends one request and returns the body of a 2xx answer.
func (r *setmdRun) call(c *http.Client, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.url+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// timed is call with its client-side time recorded under route, and a
// span when traced.
func (r *setmdRun) timed(c *http.Client, rec *reqRec, tr *tracer, op, parent int, route, method, path string, body []byte) ([]byte, error) {
	sp := tr.begin(op, parent, "server."+route)
	t0 := time.Now()
	out, err := r.call(c, method, path, body)
	rec.routes[route] += time.Since(t0)
	tr.end(sp)
	return out, err
}

// mine submits (rec.version, rec.count), waits for the job unless the
// submit answered from the cache, and fetches the result.
func (r *setmdRun) mine(c *http.Client, rec *reqRec, tr *tracer, op, parent int) {
	req, _ := json.Marshal(map[string]any{"dataset": rec.version, "minsup_count": rec.count})
	out, err := r.timed(c, rec, tr, op, parent, "submit", "POST", "/jobs", req)
	if err != nil {
		rec.err = err
		return
	}
	var st jobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return
	}
	rec.jobID = st.ID
	if rec.kind == "hit" && !st.Cached {
		rec.err = fmt.Errorf("hit on %s at %d was not served from the cache", rec.version, rec.count)
		return
	}
	if st.State != "done" {
		out, err = r.timed(c, rec, tr, op, parent, "done", "GET", "/jobs/"+st.ID+"?wait=1", nil)
		if err != nil {
			rec.err = err
			return
		}
		if err := json.Unmarshal(out, &st); err != nil {
			rec.err = fmt.Errorf("wait: %w", err)
			return
		}
		if st.State != "done" {
			rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			return
		}
	}
	rec.iters = st.Iterations
	out, err = r.timed(c, rec, tr, op, parent, "result", "GET", "/jobs/"+st.ID+"/result", nil)
	if err != nil {
		rec.err = err
		return
	}
	rec.result = out
}

// resultDigest decodes a GET /jobs/{id}/result body and fingerprints
// its counts.
func resultDigest(body []byte) ([32]byte, error) {
	var res struct{ Counts [][]core.ItemsetCount }
	if err := json.Unmarshal(body, &res); err != nil {
		return [32]byte{}, fmt.Errorf("decode result: %w", err)
	}
	return digest(res.Counts), nil
}

// pinHead returns the current head and holds it against deletion until
// unpin.
func (r *setmdRun) pinHead() (string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pins[r.head]++
	return r.head, r.slices[r.head]
}

func (r *setmdRun) unpin(v string) {
	r.mu.Lock()
	r.pins[v]--
	r.mu.Unlock()
	r.pinsFreed.Broadcast()
}

// coldCount draws a support count mined neither on version v nor on the
// base, so the submit misses the cache and cannot be patched from the
// base's result either: a cold request is always a full mine.
func (r *setmdRun) coldCount(v string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	used := r.usedCounts[v]
	if used == nil {
		used = map[int64]bool{}
		r.usedCounts[v] = used
	}
	onBase := r.usedCounts[r.baseVer]
	for span := int64(16); ; span *= 2 {
		for try := 0; try < 64; try++ {
			c := r.cref + 1 + r.rng.Int63n(span)
			if !used[c] && !onBase[c] {
				used[c] = true
				return c
			}
		}
	}
}

// do runs one request of the mix.
func (r *setmdRun) do(c *http.Client, rec *reqRec, tr *tracer, op int) {
	root := tr.begin(op, 0, "bench.req."+rec.kind)
	defer tr.end(root)
	switch rec.kind {
	case "hit", "cold":
		rec.version, rec.slice = r.pinHead()
		defer r.unpin(rec.version)
		rec.count = r.cref
		if rec.kind == "cold" {
			rec.count = r.coldCount(rec.version)
		}
		r.mine(c, rec, tr, op, root)
	case "refresh":
		r.refresh(c, rec, tr, op, root)
	}
}

// refresh appends the next continuation slice to the base, mines the
// derived version (the parent's cached border makes it a patch), makes
// it the head and deletes the superseded head.
func (r *setmdRun) refresh(c *http.Client, rec *reqRec, tr *tracer, op, root int) {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	r.mu.Lock()
	rec.slice = r.nextSlice
	r.nextSlice++
	r.mu.Unlock()
	n := r.cfg.size.refreshTxns
	if (rec.slice+1)*n > len(r.cont) {
		rec.err = errors.New("continuation exhausted")
		return
	}
	body := salesText(r.cont[rec.slice*n : (rec.slice+1)*n])
	out, err := r.timed(c, rec, tr, op, root, "append", "POST", "/datasets/"+r.baseVer+"/append", body)
	if err != nil {
		rec.err = err
		return
	}
	var ds struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(out, &ds); err != nil {
		rec.err = fmt.Errorf("append: %w", err)
		return
	}
	r.mu.Lock()
	r.input += int64(len(body))
	r.slices[ds.Version] = rec.slice
	r.mu.Unlock()
	rec.version, rec.count = ds.Version, r.cref
	r.mine(c, rec, tr, op, root)
	if rec.err != nil {
		return
	}
	r.mu.Lock()
	old := r.head
	r.head = ds.Version
	for r.pins[old] > 0 {
		r.pinsFreed.Wait()
	}
	r.mu.Unlock()
	if old == r.baseVer {
		return
	}
	if _, err := r.timed(c, rec, tr, op, root, "delete", "DELETE", "/datasets/"+old, nil); err != nil {
		rec.err = err
		return
	}
	rec.deletedAfter = old
}

// openLoop sends a seeded sequence of requests at the fixed rate over
// at most conns connections. A request's latency runs from when it was
// due, so a stalled server also delays the requests queued behind it.
func (r *setmdRun) openLoop(d time.Duration, tr *tracer, phase int64) (*window, []*reqRec) {
	s := r.cfg.size
	n := int(d.Seconds() * s.rate)
	// The mix is dealt in blocks: every block holds exactly the mix's
	// counts in a seeded order, so each run sends the same number of each
	// request type and no long run of one type.
	sched := rand.New(rand.NewSource(r.cfg.seed*1000 + phase))
	var block []string
	deal := func(kind string, k int) {
		for ; k > 0; k-- {
			block = append(block, kind)
		}
	}
	deal("hit", s.mix.hit)
	deal("cold", s.mix.cold)
	deal("refresh", s.mix.refresh)
	recs := make([]*reqRec, n)
	for i := range recs {
		if i%len(block) == 0 {
			sched.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		recs[i] = &reqRec{kind: block[i%len(block)], routes: map[string]time.Duration{}}
	}

	win := &window{}
	lag := make([]float64, n)
	var inflight, inflightMax atomic.Int64
	// Each connection takes the next request in due order and sends it
	// when due, or at once if it is already late: a request waits only
	// while every connection is busy.
	var next atomic.Int64
	var wg sync.WaitGroup
	m := startMeter()
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / s.rate)
	for i, rec := range recs {
		rec.due = start.Add(time.Duration(i) * interval)
	}
	for w := 0; w < s.conns; w++ {
		c := r.clients[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				rec := recs[i]
				if wait := time.Until(rec.due); wait > 0 {
					time.Sleep(wait)
				}
				rec.sent = time.Now()
				lag[i] = ms(rec.sent.Sub(rec.due))
				cur := inflight.Add(1)
				for {
					m := inflightMax.Load()
					if cur <= m || inflightMax.CompareAndSwap(m, cur) {
						break
					}
				}
				r.do(c, rec, tr, i+1)
				rec.done = time.Now()
				inflight.Add(-1)
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	m.stop(win)
	for _, rec := range recs {
		win.lat = append(win.lat, ms(rec.done.Sub(rec.due)))
		win.attempted++
	}
	win.lagMs = lag
	win.inflightMax = int(inflightMax.Load())
	win.busy = busyTime(recs)
	return win, recs
}

// tallyRecs counts the requests that failed, once verify has checked
// their results.
func (w *window) tallyRecs(recs []*reqRec) {
	for _, rec := range recs {
		if rec.err != nil {
			w.fail(rec.err)
		}
	}
}

// busyTime is how long at least one request was in service: the union
// of the requests' send-to-done intervals.
func busyTime(recs []*reqRec) time.Duration {
	var busy time.Duration
	var end time.Time
	for _, rec := range recs { // sent in due order, so starts ascend
		switch {
		case rec.sent.After(end):
			busy += rec.done.Sub(rec.sent)
			end = rec.done
		case rec.done.After(end):
			busy += rec.done.Sub(end)
			end = rec.done
		}
	}
	return busy
}

// reference is the digest of a library MineAuto over the base plus
// continuation slice (-1: the base alone) at support count.
func (r *setmdRun) reference(slice int, count int64) ([32]byte, error) {
	d := &core.Dataset{Transactions: r.base.Transactions}
	if slice >= 0 {
		n := r.cfg.size.refreshTxns
		d.Transactions = append(append([]core.Transaction(nil), r.base.Transactions...), r.cont[slice*n:(slice+1)*n]...)
	}
	res, err := core.MineAuto(d, core.Options{MinSupportCount: count})
	if err != nil {
		return [32]byte{}, fmt.Errorf("reference mine: %w", err)
	}
	return digest(res.Counts), nil
}

// verify marks every request whose result differs from its reference
// as failed. References are mined once per (version, count), two at a
// time.
func (r *setmdRun) verify(recs []*reqRec) error {
	type key struct {
		slice int
		count int64
	}
	refs := map[key][32]byte{}
	var keys []key
	for _, rec := range recs {
		if rec.err == nil {
			rec.digest, rec.err = resultDigest(rec.result)
		}
		k := key{rec.slice, rec.count}
		if _, ok := refs[k]; !ok && rec.err == nil {
			refs[k] = [32]byte{}
			keys = append(keys, k)
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan key)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				d, err := r.reference(k.slice, k.count)
				mu.Lock()
				refs[k] = d
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, rec := range recs {
		if rec.err == nil && rec.digest != refs[key{rec.slice, rec.count}] {
			rec.err = fmt.Errorf("%s on %s at count %d: result differs from the library MineAuto reference", rec.kind, rec.version, rec.count)
		}
	}
	return nil
}

// metrics scrapes GET /metrics.
func (r *setmdRun) metrics() (map[string]int64, error) {
	out, err := r.call(r.clients[0], "GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		m[strings.TrimPrefix(f[0], "setmd_")] = v
	}
	return m, sc.Err()
}

// recoverCheck stops the server, measures the data directory, reopens
// it (recover_s) and checks that the live versions and every result
// acknowledged on them survived.
func (r *setmdRun) recoverCheck(recs []*reqRec) (int64, float64, error) {
	if err := r.stop(); err != nil {
		return 0, 0, err
	}
	var diskBytes int64
	err := filepath.WalkDir(r.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			diskBytes += info.Size()
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := r.start(); err != nil {
		return diskBytes, 0, err
	}
	recoverS := time.Since(t0).Seconds()

	out, err := r.call(r.clients[0], "GET", "/datasets", nil)
	if err != nil {
		return diskBytes, recoverS, err
	}
	var list []struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(out, &list); err != nil {
		return diskBytes, recoverS, err
	}
	live := map[string]bool{}
	for _, d := range list {
		live[d.Version] = true
	}
	if !live[r.baseVer] || !live[r.head] {
		return diskBytes, recoverS, fmt.Errorf("after restart base %s or head %s is missing", r.baseVer, r.head)
	}
	for _, rec := range recs {
		if live[rec.deletedAfter] {
			return diskBytes, recoverS, fmt.Errorf("after restart deleted version %s is back", rec.deletedAfter)
		}
		if rec.err != nil || !live[rec.version] {
			continue
		}
		out, err := r.call(r.clients[0], "GET", "/jobs/"+rec.jobID+"/result", nil)
		if err != nil {
			return diskBytes, recoverS, fmt.Errorf("after restart: %w", err)
		}
		d, err := resultDigest(out)
		if err != nil {
			return diskBytes, recoverS, err
		}
		if d != rec.digest {
			return diskBytes, recoverS, fmt.Errorf("after restart job %s's result changed", rec.jobID)
		}
	}
	return diskBytes, recoverS, nil
}

// kindFigures sets the per-request-type latencies and the SLO share.
func kindFigures(rep *report, recs []*reqRec, limitMs float64) {
	by := map[string][]float64{}
	ok := 0
	for _, rec := range recs {
		lat := ms(rec.done.Sub(rec.due))
		by[rec.kind] = append(by[rec.kind], lat)
		if rec.err == nil && lat <= limitMs {
			ok++
		}
	}
	rep.set("hit_ms_p50", median(by["hit"]))
	rep.set("cold_ms_p50", median(by["cold"]))
	rep.set("refresh_ms_p50", median(by["refresh"]))
	rep.set("slo_ok_ratio", ratio(float64(ok), float64(len(recs))))
}

// serverFigures sets the server, wal, core and storage metrics of the
// traced half from its requests and the /metrics deltas m0 -> m1.
func (r *setmdRun) serverFigures(rep *report, recs []*reqRec, m0, m1 map[string]int64) {
	routes := map[string][]float64{}
	var resultBytes, mineMs, overheadMs, deltaMs []float64
	var refreshes, journaled int
	acc := &layerAcc{}
	var coldMineNs int64
	for _, rec := range recs {
		for route, d := range rec.routes {
			routes[route] = append(routes[route], ms(d))
			if route == "submit" || route == "append" || route == "delete" {
				journaled++
			}
		}
		if rec.err != nil {
			continue
		}
		resultBytes = append(resultBytes, float64(len(rec.result)))
		if rec.kind == "hit" {
			continue
		}
		var mineNs, dNs int64
		for _, it := range rec.iters {
			mineNs += it.DurationUs * 1000
			if strings.HasPrefix(it.Plan, core.KernelDelta+"/") {
				dNs += it.DurationUs * 1000
			}
		}
		mineMs = append(mineMs, float64(mineNs)/1e6)
		overheadMs = append(overheadMs, ms(rec.routes["submit"]+rec.routes["done"])-float64(mineNs)/1e6)
		if rec.kind == "refresh" {
			refreshes++
			deltaMs = append(deltaMs, float64(dNs)/1e6)
			continue
		}
		// Cold mines: the core layer as GET /jobs/{id} reports it.
		acc.ops++
		coldMineNs += mineNs
		for i, it := range rec.iters {
			acc.rprime += it.RPrimeRows
			acc.rrows += it.RRows
			d := it.DurationUs * 1000
			if i == 0 {
				acc.initNs += d
				continue
			}
			acc.rprimeK += it.RPrimeRows
			acc.rrowsK += it.RRows
			switch {
			case strings.HasPrefix(it.Plan, core.KernelGeneric+"/"):
				acc.genNs += d
			case strings.HasPrefix(it.Plan, core.KernelPacked+"/"+core.RegimeResident):
				acc.packedResNs += d
			case strings.HasPrefix(it.Plan, core.KernelPacked+"/"):
				acc.packedSpillNs += d
			}
			if it.RRows > 0 {
				acc.maxK = max(acc.maxK, it.K)
			}
		}
	}
	for _, route := range []string{"append", "delete", "submit", "done", "result"} {
		rep.set("server."+route+"_ms_p50", median(routes[route]))
	}
	rep.set("server.result_bytes", median(resultBytes))
	rep.set("server.job_mine_ms_p50", median(mineMs))
	rep.set("server.job_overhead_ms_p50", median(overheadMs))
	d := func(name string) float64 { return float64(m1[name] - m0[name]) }
	rep.set("server.cache_hit_ratio", ratio(d("cache_hits"), d("cache_hits")+d("cache_misses")))
	rep.set("server.patch_ratio", ratio(d("cache_patched"), float64(refreshes)))
	rep.set("server.jobs_queued", d("jobs_queued"))
	rep.set("server.jobs_rejected", d("jobs_rejected"))
	rep.set("server.admission_used_end", float64(m1["admission_used_bytes"]))
	rep.set("server.pinned_frames_end", float64(m1["pool_pinned_frames"]))
	rep.set("server.persist_errors", float64(m1["persist_errors"]))
	rep.set("wal.bytes_per_write", ratio(d("wal_size_bytes"), float64(journaled)))
	rep.set("wal.append_errors", float64(m1["wal_append_errors"]))

	// The core layer behind setmd: cold mines' iterations, refreshes'
	// delta passes. The rest of the library-only figures are zero.
	acc.callNs = coldMineNs
	acc.iterNs = coldMineNs
	acc.report(rep, nil)
	rep.set("core.delta_ms", median(deltaMs))
	rep.set("core.ns_per_rprime_row", ratio(float64(coldMineNs), float64(acc.rprime)))
	rep.set("storage.pinned_frames_end", float64(m1["pool_pinned_frames"]))
}
