package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"setm/internal/core"
)

// tinySizes shrinks every workload so the whole self-test runs in
// seconds; the Quest input keeps its full size (one op is ~0.1 s) so the
// spill and generic-kernel paths still run.
func tinySizes() sizes {
	s := fullSizes()
	s.retail.NumTransactions = 4000
	s.setups, s.warmups = 1, 1
	s.refreshTxns = 8
	return s
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// lists the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var progNames []string
	for n := range workloads {
		progNames = append(progNames, n)
	}
	sort.Strings(names)
	sort.Strings(progNames)
	if len(names) != len(progNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, progNames)
	}
	for i := range names {
		if names[i] != progNames[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, progNames)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", what, len(file), len(prog))
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestDigestDetectsWrongResult: the output check must notice one wrong
// support count.
func TestDigestDetectsWrongResult(t *testing.T) {
	counts := [][]core.ItemsetCount{{{Items: []core.Item{1}, Count: 5}, {Items: []core.Item{2}, Count: 4}}}
	good := digest(counts)
	counts[0][1].Count = 3
	if digest(counts) == good {
		t.Fatal("digest did not change when a support count did")
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size. It fails on a wrong result, a missing metric or a non-zero
// end-of-run invariant, and checks that the layers split as designed.
func TestWorkloadsTiny(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{
				workload: name, seed: 7, window: 1500 * time.Millisecond, trace: traced,
				out: t.TempDir(), size: tinySizes(),
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			line, err := finish(cfg, rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !line.Correct {
				t.Fatalf("%s trace=%v: %d of %d ops failed, violations %v, notes %v",
					name, traced, line.Failed, line.Attempted, rep.violations, rep.notes)
			}
			if !traced {
				continue
			}
			v := rep.values
			want := func(ok bool, what string) {
				if !ok {
					t.Errorf("%s: want %s (values %v)", name, what, v)
				}
			}
			for _, end := range []string{"storage.pinned_frames_end", "server.pinned_frames_end", "server.admission_used_end"} {
				want(v[end] == 0, end+" = 0")
			}
			switch name {
			case "mine-retail":
				want(v["storage.page_writes"] == 0, "no page writes")
				want(v["core.generic_ms"] == 0 && v["core.packed_spilled_ms"] == 0, "packed resident kernels only")
			case "mine-quest-spill":
				want(v["storage.runs_spilled"] > 0, "spilled runs")
				want(v["core.generic_ms"] > 0, "a generic-kernel iteration")
			case "sql-retail":
				want(v["engine.extend_ms"] > 0 && v["sqlparse.stmts_per_mine"] > 0, "engine and sqlparse work")
			case "setmd-mixed":
				want(v["server.patch_ratio"] > 0, "patched refreshes")
				want(v["bench.inflight_max"] <= float64(cfg.size.conns), "at most conns requests in flight")
			}
		}
	}
}
