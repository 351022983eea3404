package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"
	"strconv"

	"setm/internal/core"
	"setm/internal/gen"
)

// sizes fixes the shape of every workload's input and load. fullSizes is
// what the benchmark runs; the self-test shrinks it.
type sizes struct {
	// retail is the Section 6 stand-in shared by mine-retail, sql-retail
	// and setmd-mixed; retailMinsup is the paper's 0.1% support.
	retail       gen.RetailConfig
	retailMinsup float64

	// quest is mine-quest-spill's long-pattern data, mined at questMinsup
	// under questBudget bytes.
	quest       gen.QuestConfig
	questMinsup float64
	questBudget int64

	// setups is how many times a run repeats its set-up (setup_s is the
	// median); warmups is the number of untimed ops after each set-up.
	setups, warmups int

	// setmd-mixed: the open-loop rate in requests per second, the request
	// mix (requests of each type per block), the transactions appended per
	// refresh, the connection count and the latency limit behind
	// slo_ok_ratio.
	rate        float64
	mix         struct{ hit, cold, refresh int }
	refreshTxns int
	conns       int
	sloLimitMs  float64
}

func fullSizes() sizes {
	return sizes{
		retail:       gen.DefaultRetail(1),
		retailMinsup: 0.001,
		quest: gen.QuestConfig{
			NumTransactions: 500, NumItems: 150, AvgTxnLen: 14,
			AvgPatternLen: 11, NumPatterns: 60, Seed: 1,
		},
		questMinsup: 0.015,
		questBudget: 1 << 20,
		setups:      5,
		warmups:     2,
		rate:        20,
		mix:         struct{ hit, cold, refresh int }{17, 2, 1},
		refreshTxns: 47, // ~0.1% of 46,873
		conns:       2,
		sloLimitMs:  250,
	}
}

// relabel returns d with item i renamed to the i-th smallest of
// numItems distinct values drawn by seed from 1..100*numItems. The
// benchmark seed enters the inputs this way. The renaming keeps the
// items' order, so every seed yields the same relations R'_k, R_k and
// plans and runs with different seeds time the same work; a permutation
// would reorder the items, and with them the (k-1)-prefixes SETM extends
// (on mine-quest-spill, summed |R'_k| varied 8% and three seeds in ten
// never reached the generic kernel).
func relabel(d *core.Dataset, numItems int, seed int64) *core.Dataset {
	ids := rand.New(rand.NewSource(seed)).Perm(100 * numItems)[:numItems]
	sort.Ints(ids)
	out := &core.Dataset{Transactions: make([]core.Transaction, len(d.Transactions))}
	for i, tx := range d.Transactions {
		items := make([]core.Item, len(tx.Items))
		for j, it := range tx.Items {
			items[j] = core.Item(ids[it-1] + 1)
		}
		out.Transactions[i] = core.Transaction{ID: tx.ID, Items: items}
	}
	return out
}

// retailInput generates n transactions of the retail stand-in (a prefix
// of any longer generation, so the tail past the first NumTransactions
// is the prefix-stable continuation setmd-mixed appends) and relabels
// them by seed.
func retailInput(s sizes, n int, seed int64) *core.Dataset {
	cfg := s.retail
	cfg.NumTransactions = n
	return relabel(gen.Retail(cfg), cfg.NumItems, seed)
}

func questInput(s sizes, seed int64) *core.Dataset {
	return relabel(gen.Quest(s.quest), s.quest.NumItems, seed)
}

// fresh wraps the transactions in a new Dataset, so nothing a previous
// op cached on the Dataset (its SALES rows) is reused.
func fresh(d *core.Dataset) *core.Dataset {
	return &core.Dataset{Transactions: d.Transactions}
}

// digest fingerprints a result's count relations C_1..C_k; results from
// different drivers match iff their digests do.
func digest(counts [][]core.ItemsetCount) [32]byte {
	for len(counts) > 0 && len(counts[len(counts)-1]) == 0 {
		counts = counts[:len(counts)-1]
	}
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	put := func(v int64) { h.Write(buf[:binary.PutVarint(buf[:], v)]) }
	for k, ck := range counts {
		put(int64(k + 1))
		put(int64(len(ck)))
		for _, ic := range ck {
			for _, it := range ic.Items {
				put(it)
			}
			put(ic.Count)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// salesText renders transactions in the SALES text format setmd
// accepts: one "trans_id item" pair per line.
func salesText(txs []core.Transaction) []byte {
	var b bytes.Buffer
	for _, tx := range txs {
		for _, it := range tx.Items {
			b.WriteString(strconv.FormatInt(tx.ID, 10))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(it, 10))
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}
