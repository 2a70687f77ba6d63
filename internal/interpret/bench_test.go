package interpret

import (
	"fmt"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// benchDAG builds rounds of all-to-all blocks with one fresh BRB instance
// per round.
func benchDAG(rounds int) *dagtest.Harness {
	h := dagtest.NewHarness(4)
	for r := 0; r < rounds; r++ {
		h.Round(map[int][]block.Request{
			r % 4: {{Label: types.Label(fmt.Sprintf("l/%d", r)), Data: []byte("v")}},
		})
	}
	return h
}

func BenchmarkInterpretPerBlock(b *testing.B) {
	h := benchDAG(32)
	blocks := h.DAG.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := New(brb.Protocol{}, 4, 1, nil)
		for _, blk := range blocks {
			if err := it.AddBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(blocks)), "blocks/op")
}

// BenchmarkInterpretManyLabels measures the cost of one block carrying
// requests for many instances at once — the per-label overhead of the
// copy-on-write process map.
func BenchmarkInterpretManyLabels(b *testing.B) {
	for _, labels := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("labels=%d", labels), func(b *testing.B) {
			h := dagtest.NewHarness(4)
			reqs := make([]block.Request, labels)
			for i := range reqs {
				reqs[i] = block.Request{Label: types.Label(fmt.Sprintf("l/%d", i)), Data: []byte("v")}
			}
			h.Round(map[int][]block.Request{0: reqs})
			for r := 0; r < 3; r++ {
				h.Round(nil)
			}
			blocks := h.DAG.Blocks()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := New(brb.Protocol{}, 4, 1, nil)
				for _, blk := range blocks {
					if err := it.AddBlock(blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkImplicitVsExplicit compares interpretation cost of the two
// inclusion semantics on the same dense DAG.
func BenchmarkImplicitVsExplicit(b *testing.B) {
	h := benchDAG(32)
	blocks := h.DAG.Blocks()
	for _, mode := range []string{"explicit", "implicit"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var opts []Option
				if mode == "implicit" {
					opts = append(opts, WithImplicitInclusion())
				}
				it := New(brb.Protocol{}, 4, 1, nil, opts...)
				for _, blk := range blocks {
					if err := it.AddBlock(blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkImplicitDeep measures implicit-inclusion interpretation over
// deep DAGs (hundreds of all-to-all rounds): with the ancestry-watermark
// enumeration the per-block collection cost must stay flat in depth.
func BenchmarkImplicitDeep(b *testing.B) {
	for _, rounds := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			h := benchDAG(rounds)
			blocks := h.DAG.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := New(brb.Protocol{}, 4, 1, nil, WithImplicitInclusion())
				if err := it.InterpretDAG(h.DAG); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks), "ns/block")
		})
	}
}
