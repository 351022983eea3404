package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"setm/internal/core"
)

// TestMineSQLMatchesOracleProperty runs MineSQL over randomized SALES
// relations large enough for the planner's cost choices to matter (hash
// vs sort aggregation, merge vs hash joins) and pins every C_k to the
// serial generic miner. MaxWorkers 4 must change nothing: the engine's
// plans are serial.
func TestMineSQLMatchesOracleProperty(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		n := 3000 + trial*2000
		rng := rand.New(rand.NewSource(int64(trial*10 + 1)))
		d := &core.Dataset{}
		for rows := 0; rows < n; {
			tid := int64(1)
			if k := len(d.Transactions); k > 0 {
				tid = d.Transactions[k-1].ID + 1 + rng.Int63n(2)
			}
			run := 1 + rng.Intn(4)
			items := make([]core.Item, 0, run)
			for j := 0; j < run && rows < n; j++ {
				items = append(items, core.Item(rng.Int63n(60)))
				rows++
			}
			d.Transactions = append(d.Transactions, core.Transaction{ID: tid, Items: items})
		}
		for _, minSup := range []int64{2, 5} {
			opts := core.Options{MinSupportCount: minSup}
			oracle := opts
			oracle.DisablePackedKernels = true
			want, err := core.MineMemory(d, oracle)
			if err != nil {
				t.Fatal(err)
			}
			if minSup == 2 && len(want.Counts) < 3 {
				t.Fatalf("trial %d: oracle stops at C_%d; the data must reach C_3", trial, len(want.Counts))
			}
			for _, workers := range []int{1, 4} {
				o := opts
				o.MaxWorkers = workers
				got, err := core.MineSQL(d, o, core.SQLConfig{})
				if err != nil {
					t.Fatalf("trial %d minsup=%d workers=%d: %v", trial, minSup, workers, err)
				}
				assertIdenticalCounts(t, fmt.Sprintf("trial %d minsup=%d workers=%d", trial, minSup, workers), want, got)
			}
		}
	}
}
