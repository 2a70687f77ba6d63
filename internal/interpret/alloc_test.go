package interpret

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// brb1KDAG builds the fixed allocation-budget workload: 4 builders in
// all-to-all rounds, each block carrying perBlock fresh BRB broadcasts of
// 1 KiB seeded random values, then quiet rounds until every instance has
// delivered everywhere. It returns the blocks in insertion order and the
// number of labels.
func brb1KDAG(rounds, perBlock int) ([]*block.Block, int) {
	rng := rand.New(rand.NewSource(1))
	h := dagtest.NewHarness(4)
	labels := 0
	for r := 0; r < rounds; r++ {
		reqs := make(map[int][]block.Request, 4)
		for s := 0; s < 4; s++ {
			for k := 0; k < perBlock; k++ {
				data := make([]byte, 1024)
				rng.Read(data)
				reqs[s] = append(reqs[s], block.Request{Label: types.Label(fmt.Sprintf("l/%d", labels)), Data: data})
				labels++
			}
		}
		h.Round(reqs)
	}
	for r := 0; r < 3; r++ {
		h.Round(nil)
	}
	return h.DAG.Blocks(), labels
}

func interpretAll(tb testing.TB, blocks []*block.Block, onInd func(Indication)) *Interpreter {
	it := New(brb.Protocol{}, 4, 1, onInd)
	for _, b := range blocks {
		if err := it.AddBlock(b); err != nil {
			tb.Fatal(err)
		}
	}
	return it
}

// Allocation budgets for interpreting brb1KDAG(16, 4) — 76 blocks, 256
// labels — set from the measured cost with ~25% headroom, so a relapse to
// copying values or map-keyed process state per step fails tier-1. The
// compact BRB state with sort-dedup in-buffers measures 227 allocs per
// block and 11.7 KB retained per label; the map-keyed implementation
// with keyed in-buffer sets needed 1131 and 30.7 KB.
const (
	maxAllocsPerBlock   = 285
	maxRetainedPerLabel = 14600
)

// TestInterpretAllocationBudget pins the interpreter's allocation count
// per block and the heap it retains per label.
func TestInterpretAllocationBudget(t *testing.T) {
	blocks, labels := brb1KDAG(16, 4)
	delivered := 0
	interpretAll(t, blocks, func(Indication) { delivered++ })
	if want := 4 * labels; delivered != want {
		t.Fatalf("workload delivered %d indications, want %d", delivered, want)
	}

	allocs := testing.AllocsPerRun(3, func() { interpretAll(t, blocks, nil) })
	perBlock := allocs / float64(len(blocks))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	it := interpretAll(t, blocks, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(it)
	perLabel := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(labels)

	t.Logf("%d blocks, %d labels: %.1f allocs/block, %d B retained/label", len(blocks), labels, perBlock, perLabel)
	if perBlock > maxAllocsPerBlock {
		t.Errorf("%.1f allocs per interpreted block, budget %d", perBlock, maxAllocsPerBlock)
	}
	if perLabel > maxRetainedPerLabel {
		t.Errorf("%d heap bytes retained per label, budget %d", perLabel, maxRetainedPerLabel)
	}
}

// BenchmarkInterpretBRB1K interprets the allocation-budget workload: BRB
// broadcasts of 1 KiB values, the saturation benchmark's request size.
func BenchmarkInterpretBRB1K(b *testing.B) {
	blocks, labels := brb1KDAG(16, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interpretAll(b, blocks, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(labels), "ns/label")
}
