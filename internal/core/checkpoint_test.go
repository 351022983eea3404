// Checkpoint/resume conformance: a mine interrupted at ANY iteration
// boundary and resumed from its durable checkpoint must produce count
// relations bit-identical to an uninterrupted MineAuto run — across
// memory regimes, budgets, the PrefilterSales ablation, and the
// wide-pattern fallback — and every integrity failure of the checkpoint
// files must surface as ErrCheckpoint (so callers fall back to a full
// re-mine), never as a crash or a wrong answer.
package core_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"setm/internal/core"
	"setm/internal/storage"
)

// ckptDataset builds a deterministic random dataset.
func ckptDataset(seed int64, txns, maxLen, nItems int) *core.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &core.Dataset{}
	id := int64(0)
	for i := 0; i < txns; i++ {
		id += 1 + int64(rng.Intn(5))
		ln := 1 + rng.Intn(maxLen)
		items := make([]core.Item, ln)
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(nItems))
		}
		d.Transactions = append(d.Transactions, core.Transaction{ID: id, Items: items})
	}
	return d
}

// writeCheckpointAt mines with MaxPatternLen = k so the checkpoint left
// in dir describes iteration <= k, exactly as a crash after iteration k
// would have (the per-iteration manifests are byte-wise replaced, so a
// capped run's last manifest equals the uncapped run's manifest at the
// same k).
func writeCheckpointAt(t *testing.T, d *core.Dataset, opts core.Options, k int, dir string) *core.Checkpoint {
	t.Helper()
	opts.MaxPatternLen = k
	opts.Checkpoint = &core.CheckpointConfig{Dir: dir, NoSync: true}
	if _, err := core.MineAuto(d, opts); err != nil {
		t.Fatalf("checkpointed mine (k<=%d): %v", k, err)
	}
	cp, err := core.LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	return cp
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	shapes := []struct {
		name string
		opts core.Options
	}{
		{"resident", core.Options{MinSupportCount: 2}},
		{"spilled-tiny-budget", core.Options{MinSupportCount: 2, MemoryBudget: 1 << 14, MaxWorkers: 2}},
		{"prefilter", core.Options{MinSupportCount: 3, PrefilterSales: true}},
		{"prefilter-spilled", core.Options{MinSupportCount: 3, PrefilterSales: true, MemoryBudget: 1 << 14}},
		{"frac-support", core.Options{MinSupportFrac: 0.04, MaxWorkers: 3}},
	}
	d := ckptDataset(42, 90, 9, 14)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, err := core.MineAuto(d, sh.opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= len(ref.Counts); k++ {
				cp := writeCheckpointAt(t, d, sh.opts, k, t.TempDir())
				if cp == nil {
					t.Fatalf("k=%d: no checkpoint written", k)
				}
				res, err := core.MineAutoResume(context.Background(), d, sh.opts, cp)
				if err != nil {
					t.Fatalf("resume from k=%d: %v", cp.K, err)
				}
				if !reflect.DeepEqual(res.Counts, ref.Counts) {
					t.Fatalf("k=%d: resumed counts differ from uninterrupted run", k)
				}
				if res.MinSupport != ref.MinSupport || res.NumTransactions != ref.NumTransactions {
					t.Fatalf("k=%d: result metadata differs", k)
				}
				if len(res.Stats) != len(ref.Stats) {
					t.Fatalf("k=%d: %d stats, want %d (replayed + live)", k, len(res.Stats), len(ref.Stats))
				}
			}
		})
	}
}

// TestCheckpointResumeWideFallback pins resume on a dataset whose
// catalogue forces patterns past the 64-bit packed key: checkpoints stop
// at the packed boundary, and resuming from the last packed manifest
// re-runs the fallback iterations to the same answer.
func TestCheckpointResumeWideFallback(t *testing.T) {
	// ~4800 distinct filler items need 13-bit codes, so patterns of
	// length 5+ outgrow the 64-bit key; the 6 common items stay frequent
	// past that boundary (the TestPackedWideDomainFallback construction).
	common := []core.Item{1, 2, 3, 4, 5, 6}
	d := &core.Dataset{}
	filler := int64(1000)
	for i := 0; i < 30; i++ {
		items := append([]core.Item(nil), common...)
		for j := 0; j < 160; j++ {
			items = append(items, filler)
			filler++
		}
		d.Transactions = append(d.Transactions, core.Transaction{ID: int64(i + 1), Items: items})
	}
	opts := core.Options{MinSupportCount: 25}
	ref, err := core.MineAuto(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	fellBack := false
	for _, st := range ref.Stats {
		if st.Plan.Kernel == core.KernelGeneric {
			fellBack = true
		}
	}
	if !fellBack {
		t.Fatal("setup: dataset did not force the wide-pattern fallback")
	}

	dir := t.TempDir()
	optsCk := opts
	optsCk.Checkpoint = &core.CheckpointConfig{Dir: dir, NoSync: true}
	res, err := core.MineAuto(d, optsCk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Counts, ref.Counts) {
		t.Fatal("checkpointing changed the mining result")
	}
	cp, err := core.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint survived the fallback run")
	}
	resumed, err := core.MineAutoResume(context.Background(), d, opts, cp)
	if err != nil {
		t.Fatalf("resume from packed k=%d across the fallback: %v", cp.K, err)
	}
	if !reflect.DeepEqual(resumed.Counts, ref.Counts) {
		t.Fatal("resumed counts differ across the wide-pattern fallback")
	}
}

func TestLoadCheckpointEdgeCases(t *testing.T) {
	d := ckptDataset(7, 60, 7, 10)
	opts := core.Options{MinSupportCount: 2}

	t.Run("no-manifest", func(t *testing.T) {
		cp, err := core.LoadCheckpoint(t.TempDir())
		if cp != nil || err != nil {
			t.Fatalf("empty dir: cp=%v err=%v", cp, err)
		}
	})

	t.Run("missing-run-file", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 2, dir)
		runs, _ := filepath.Glob(filepath.Join(dir, "rk-*.run"))
		if len(runs) != 1 {
			t.Fatalf("expected 1 run file, found %v", runs)
		}
		os.Remove(runs[0])
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("missing run file: %v", err)
		}
	})

	t.Run("corrupt-run-crc", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 2, dir)
		runs, _ := filepath.Glob(filepath.Join(dir, "rk-*.run"))
		data, err := os.ReadFile(runs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		os.WriteFile(runs[0], data, 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("corrupt run: %v", err)
		}
	})

	t.Run("truncated-run", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 2, dir)
		runs, _ := filepath.Glob(filepath.Join(dir, "rk-*.run"))
		data, _ := os.ReadFile(runs[0])
		os.WriteFile(runs[0], data[:len(data)-9], 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("truncated run: %v", err)
		}
	})

	t.Run("garbage-manifest", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{not json"), 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("garbage manifest: %v", err)
		}
	})

	t.Run("escaping-run-path", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, "MANIFEST.json"),
			[]byte(`{"version":1,"k":1,"min_sup":2,"num_transactions":3,"rk_file":"../../etc/passwd","counts":[[]]}`), 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("path-escaping manifest: %v", err)
		}
	})
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	d := ckptDataset(9, 70, 8, 12)
	cp := writeCheckpointAt(t, d, core.Options{MinSupportCount: 2}, 2, t.TempDir())

	// Different support threshold than the manifest's.
	if _, err := core.MineAutoResume(context.Background(), d, core.Options{MinSupportCount: 5}, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("mismatched minsup: %v", err)
	}
	// Different dataset (one transaction dropped).
	d2 := &core.Dataset{Transactions: d.Transactions[:len(d.Transactions)-1]}
	if _, err := core.MineAutoResume(context.Background(), d2, core.Options{MinSupportCount: 2}, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("mismatched dataset: %v", err)
	}
	// Same transaction count, different contents: caught by the packed
	// SALES row count.
	d3 := &core.Dataset{}
	for _, tx := range d.Transactions {
		d3.Transactions = append(d3.Transactions, core.Transaction{ID: tx.ID, Items: tx.Items[:1]})
	}
	if _, err := core.MineAutoResume(context.Background(), d3, core.Options{MinSupportCount: 2}, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("mismatched contents: %v", err)
	}
	// The generic-kernel ablation cannot host a packed resume.
	if _, err := core.MineAutoResume(context.Background(), d, core.Options{MinSupportCount: 2, DisablePackedKernels: true}, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("resume under DisablePackedKernels: %v", err)
	}
	// nil checkpoint degrades to a plain mine.
	res, err := core.MineAutoResume(context.Background(), d, core.Options{MinSupportCount: 2}, nil)
	if err != nil || res == nil {
		t.Fatalf("nil checkpoint: %v", err)
	}
}

// TestResumeRejectsForeignItems resumes a PrefilterSales checkpoint on a
// dataset with the same transaction and SALES row counts but other item
// ids: the manifest's C_1 names items the dictionary lacks, which must
// surface as ErrCheckpoint rather than be coded (or index the dense code
// table out of range).
func TestResumeRejectsForeignItems(t *testing.T) {
	d := ckptDataset(9, 70, 8, 12)
	opts := core.Options{MinSupportCount: 2, PrefilterSales: true}
	cp := writeCheckpointAt(t, d, opts, 2, t.TempDir())
	shifted := &core.Dataset{}
	for _, tx := range d.Transactions {
		items := make([]core.Item, len(tx.Items))
		for i, it := range tx.Items {
			items[i] = it + 1000
		}
		shifted.Transactions = append(shifted.Transactions, core.Transaction{ID: tx.ID, Items: items})
	}
	if _, err := core.MineAutoResume(context.Background(), shifted, opts, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("foreign C_1 items: %v", err)
	}
}

// TestCheckpointWriteFailureNonFatal points the checkpoint directory
// under a regular file so every write fails: the mine must finish with
// the right answer, report the failure through OnError exactly once
// (checkpointing disables itself), and record zero CheckpointBytes.
func TestCheckpointWriteFailureNonFatal(t *testing.T) {
	d := ckptDataset(11, 80, 8, 12)
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fails int
	opts := core.Options{MinSupportCount: 2, Checkpoint: &core.CheckpointConfig{
		Dir:     filepath.Join(blocker, "ckpt"),
		OnError: func(err error) { fails++ },
	}}
	ref, err := core.MineAuto(d, core.Options{MinSupportCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MineAuto(d, opts)
	if err != nil {
		t.Fatalf("mine with failing checkpoints: %v", err)
	}
	if !reflect.DeepEqual(res.Counts, ref.Counts) {
		t.Fatal("failing checkpoints changed the mining result")
	}
	if fails != 1 {
		t.Fatalf("OnError fired %d times, want 1 (disabled after first failure)", fails)
	}
	for _, st := range res.Stats {
		if st.CheckpointBytes != 0 {
			t.Fatalf("iteration %d recorded %d checkpoint bytes despite failures", st.K, st.CheckpointBytes)
		}
	}
}

func TestCheckpointIntervalAndStats(t *testing.T) {
	d := ckptDataset(13, 90, 9, 12)
	dir := t.TempDir()
	opts := core.Options{MinSupportCount: 2, Checkpoint: &core.CheckpointConfig{Dir: dir, Interval: 2, NoSync: true}}
	res, err := core.MineAuto(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wrote []int
	for _, st := range res.Stats {
		if st.CheckpointBytes > 0 {
			wrote = append(wrote, st.K)
			if st.K%2 != 0 {
				t.Fatalf("interval 2 checkpointed odd iteration %d", st.K)
			}
		}
	}
	if len(wrote) == 0 {
		t.Fatal("interval 2 never checkpointed")
	}
	// Exactly one checkpoint (manifest + one run file) remains.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("checkpoint dir holds %v, want MANIFEST.json + one run", names)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("temp debris left behind: %s", n)
		}
	}
}

// TestResumeZeroPinnedFrames runs a spilled resume on a caller-owned
// pool and checks the storage invariant the whole engine is pinned to:
// no frames stay pinned after mining, resumed or not.
func TestResumeZeroPinnedFrames(t *testing.T) {
	d := ckptDataset(17, 120, 10, 14)
	opts := core.Options{MinSupportCount: 2, MemoryBudget: 1 << 14, MaxWorkers: 2}
	cp := writeCheckpointAt(t, d, opts, 2, t.TempDir())
	pool := storage.NewPool(storage.NewMemStore(), 256)
	res, err := core.MineAutoResumeMonitored(context.Background(), d, opts, pool, nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPatterns() == 0 {
		t.Fatal("resumed mine found nothing")
	}
	if pinned := pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned after resume", pinned)
	}
}

// TestCheckpointWithInjectedPoolFaults mines with checkpointing over a
// fault-injecting store: whether the fault fires during mining or the
// checkpoint's read-back of spilled runs, the run must fail cleanly
// (zero pinned frames) or succeed exactly, and whatever checkpoint
// survives on disk must either load-and-resume to the reference answer
// or be rejected as ErrCheckpoint — never resume to a wrong result.
func TestCheckpointWithInjectedPoolFaults(t *testing.T) {
	d := ckptDataset(19, 100, 9, 12)
	opts := core.Options{MinSupportCount: 2, MemoryBudget: 1 << 14}
	ref, err := core.MineAuto(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, failAfter := range []int{0, 3, 7, 15, 40, 200} {
		for _, mode := range []string{"read", "write"} {
			dir := t.TempDir()
			fs := storage.NewFaultStore(storage.NewMemStore())
			if mode == "read" {
				fs.FailReadAfter = failAfter
			} else {
				fs.FailWriteAfter = failAfter
			}
			pool := storage.NewPool(fs, 256)
			optsCk := opts
			optsCk.Checkpoint = &core.CheckpointConfig{Dir: dir, NoSync: true}
			res, err := core.MineAutoMonitored(context.Background(), d, optsCk, pool, nil)
			if err == nil && !reflect.DeepEqual(res.Counts, ref.Counts) {
				t.Fatalf("%s/%d: survived faults with a wrong answer", mode, failAfter)
			}
			if pinned := pool.PinnedFrames(); pinned != 0 {
				t.Fatalf("%s/%d: %d frames pinned after faulted run", mode, failAfter, pinned)
			}
			cp, lerr := core.LoadCheckpoint(dir)
			if lerr != nil {
				if !errors.Is(lerr, core.ErrCheckpoint) {
					t.Fatalf("%s/%d: LoadCheckpoint: %v", mode, failAfter, lerr)
				}
				continue
			}
			if cp == nil {
				continue
			}
			resumed, rerr := core.MineAutoResume(context.Background(), d, opts, cp)
			if rerr != nil {
				if !errors.Is(rerr, core.ErrCheckpoint) {
					t.Fatalf("%s/%d: resume: %v", mode, failAfter, rerr)
				}
				continue
			}
			if !reflect.DeepEqual(resumed.Counts, ref.Counts) {
				t.Fatalf("%s/%d: resumed from fault-era checkpoint to a wrong answer", mode, failAfter)
			}
		}
	}
}
