package obliv

import (
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/prng"
)

// BenchmarkCexRun times one raw width-1 run of 2^9 pairs (a leaf's longest
// run, L1-resident) over three key orders, in three modes: the element
// comparator (TiePos); the plane comparator over one key plane and one
// carried plane, recording each pair's swap bit — the PRAM merge's
// comparator — on the detected path (AVX-512 where the CPU has it) and on
// the portable Go loop; and the fused tail of the same plane kernel, the
// layers at strides 4, 2 and 1 over the run's 2^10 slots in 8-slot blocks
// (3·2^9 pairs). The three orders must cost the same in each mode: the
// comparator turns the outcome into a mask, so an always-hold input
// (sorted), an always-swap input (reverse) and a coin-flip input (random)
// retire the same instructions with the same branch history. A
// random/sorted ratio well above 1 means a data-dependent branch came
// back.
func BenchmarkCexRun(b *testing.B) {
	const pairs = 1 << 9
	orders := []struct {
		name string
		key  func(src *prng.Source, i int) uint64
	}{
		{"sorted", func(_ *prng.Source, i int) uint64 { return uint64(i) }},
		{"random", func(src *prng.Source, _ int) uint64 { return src.Uint64n(1 << 40) }},
		{"reverse", func(_ *prng.Source, i int) uint64 { return uint64(2*pairs - i) }},
	}
	for _, mode := range []string{"", "planes-record-", "portable-planes-record-", "tail-record-"} {
		planes := mode != ""
		for _, o := range orders {
			b.Run(mode+o.name, func(b *testing.B) {
				detected := useAVX512
				defer func() { useAVX512 = detected }()
				useAVX512 = detected && mode != "portable-planes-record-"
				sp := mem.NewSpace()
				src := prng.New(9)
				in := make([]Elem, 2*pairs)
				for i := range in {
					in[i] = Elem{Key: o.key(src, i), Val: uint64(i), Aux: uint64(i), Kind: Real}
				}
				a := mem.FromSlice(sp, in)
				ks := AllocKeySchedule(sp, 2*pairs, 2) // plane 1: the carried value
				var kern CexKernel
				if planes {
					kern = NewCexKernelPlanes(forkjoin.Serial(), ks, 1, mem.Alloc[uint64](sp, 3*pairs/64))
				} else {
					kern = NewCexKernel(forkjoin.Serial(), a, &KeySchedule{planes: ks.planes[:1]})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Reload untimed: a run leaves its pairs ordered, which
					// would turn every input into the sorted one from the
					// second iteration on.
					b.StopTimer()
					copy(a.Data(), in)
					for j, e := range in {
						ks.Plane(0).Data()[j] = e.Key
						ks.Plane(1).Data()[j] = e.Val
					}
					b.StartTimer()
					switch mode {
					case "":
						kern.run(0, pairs, pairs, true)
					case "planes-record-", "portable-planes-record-":
						kern.pairs(0, pairs, 0, pairs, 0, true, 0)
					default:
						kern.tail(0, 0, 2*pairs, 0, true, 0, pairs)
					}
				}
				perRun := pairs
				if mode == "tail-record-" {
					perRun = 3 * pairs
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(perRun), "ns/pair")
			})
		}
	}
}
