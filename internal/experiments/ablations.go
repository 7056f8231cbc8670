package experiments

import (
	"fmt"
	"io"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// Fig1 prints the bitonic sorting network for n = 16 — the structure of
// the paper's Figure 1 — layer by layer ('<' comparator orders min-up,
// '>' orders max-up, matching the figure's arrows).
func Fig1(w io.Writer) {
	fmt.Fprintln(w, "\n== Figure 1 — bitonic sorting network, n = 16 ==")
	layers := bitonic.Schedule(16)
	for li, layer := range layers {
		fmt.Fprintf(w, "layer %2d: ", li)
		for _, cmp := range layer {
			dir := "<"
			if !cmp.Asc {
				dir = ">"
			}
			fmt.Fprintf(w, "(%2d%s%2d) ", cmp.I, dir, cmp.J)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "layers: %d, comparators: %d (n/2 · k(k+1)/2 for k = log n = 4)\n",
		len(layers), len(layers)*8)
}

// BitonicAblation regenerates the Theorem E.1 comparison: the paper's
// cache-agnostic BITONIC-SORT vs the naive per-layer parallelization and
// the odd-even network, all three sorting one key plane (a
// compare-exchange touches one word per side, the model the theorem is
// stated in).
func BitonicAblation(w io.Writer, cacheM, cacheB int, quick bool) {
	sizes := []int{1 << 10, 1 << 12, 1 << 14}
	if quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	writeRows(w, "Theorem E.1 — bitonic variants", bitonicRows(cacheM, cacheB, sizes))
	fmt.Fprintln(w, `
Claim: the cache-agnostic variant matches the naive network's O(n log² n)
work while cutting span from O(log³ n) to O(log² n·loglog n) and cache
misses from (n/B)·log² n to (n/B)·log_M n·log(n/M).`)
}

// bitonicRows measures the three networks of BitonicAblation at each size.
func bitonicRows(cacheM, cacheB int, sizes []int) []Row {
	var rows []Row
	variants := []struct {
		name string
		sort func(c *forkjoin.Ctx, sp *mem.Space, ks *obliv.KeySchedule, n int)
	}{
		{"bitonic-cache-agnostic", func(c *forkjoin.Ctx, sp *mem.Space, ks *obliv.KeySchedule, n int) {
			bitonic.SortCAPlanes(c, ks, obliv.AllocKeySchedule(sp, n, 1), 1, nil, 0, n, true, 0)
		}},
		{"bitonic-naive", func(c *forkjoin.Ctx, _ *mem.Space, ks *obliv.KeySchedule, n int) {
			bitonic.SortIterative(c, ks, 0, n)
		}},
		{"odd-even", func(c *forkjoin.Ctx, _ *mem.Space, ks *obliv.KeySchedule, n int) {
			bitonic.SortOddEven(c, ks, 0, n)
		}},
	}
	for _, n := range sizes {
		keys := distinctKeys(uint64(n), n)
		for _, v := range variants {
			m := Meter(cacheM, cacheB, func(c *forkjoin.Ctx, sp *mem.Space) {
				v.sort(c, sp, obliv.NewKeySchedule(mem.FromSlice(sp, keys), n, 1), n)
			})
			normS := lg(n) * lg(n) * lg(n) // naive
			normQ := float64(n) / float64(cacheB) * lg(n) * lg(n)
			if v.name == "bitonic-cache-agnostic" {
				normS = lg(n) * lg(n) * loglog(n)
				normQ = float64(n) / float64(cacheB) * logM(n, cacheM) * lg(float64ToInt(float64(n)/float64(cacheM)))
			}
			rows = append(rows, Row{
				Task: "BitonicSort", Impl: v.name, N: n, M: m,
				NormW: float64(n) * lg(n) * lg(n),
				NormS: normS,
				NormQ: normQ,
			})
		}
	}
	return rows
}

func float64ToInt(v float64) int {
	if v < 2 {
		return 2
	}
	return int(v)
}

// ORBAAblation regenerates the Lemma 3.1 / Theorem C.1 comparisons:
// REC-ORBA vs layer-by-layer META-ORBA, and γ = Θ(log n) vs the prior
// work's γ = 2.
func ORBAAblation(w io.Writer, cacheM, cacheB int, quick bool) {
	sizes := []int{1 << 10, 1 << 12}
	if quick {
		sizes = []int{1 << 10}
	}
	var rows []Row
	for _, n := range sizes {
		keys := distinctKeys(uint64(n), n)
		cfgs := []struct {
			impl string
			p    core.Params
			rec  bool
		}{
			{"REC-ORBA γ=log n", core.Params{}, true},
			{"REC-ORBA γ=2 (prior)", core.Params{Gamma: 2}, true},
			{"META-ORBA γ=log n", core.Params{}, false},
		}
		for _, cfg := range cfgs {
			cfg := cfg
			m := Meter(cacheM, cacheB, func(c *forkjoin.Ctx, sp *mem.Space) {
				in := elemsOf(sp, keys)
				p := cfg.p
				tape := prng.NewTape(7, core.TapeLen(n, p))
				if cfg.rec {
					core.RecORBA(c, sp, in, tape, p)
				} else {
					core.MetaORBA(c, sp, in, tape, p)
				}
			})
			rows = append(rows, Row{
				Task: "ORBA", Impl: cfg.impl, N: n, M: m,
				NormW: float64(n) * lg(n) * loglog(n),
				NormS: lg(n) * loglog(n) * loglog(n),
				NormQ: float64(n) / float64(cacheB) * logM(n, cacheM),
			})
		}
	}
	writeRows(w, "Lemma 3.1 / Theorem C.1 — ORBA variants", rows)
	fmt.Fprintln(w, `
Claims: γ=Θ(log n) saves a loglog factor over γ=2 (compare spans);
REC-ORBA's recursion beats META-ORBA's layer-by-layer passes on cache
misses at the same work.`)
}

// Overflow regenerates the §C.2 overflow analysis: the probability that a
// bin exceeds Z as a function of Z, measured across independent tapes.
func Overflow(w io.Writer, quick bool) {
	const n = 1 << 10
	zs := []int{8, 16, 32, 64, 128}
	runs := 100
	if quick {
		runs = 30
	}
	fmt.Fprintln(w, "\n== §C.2 — ORBA overflow probability vs bin size Z ==")
	fmt.Fprintf(w, "n=%d, mean bin load Z/2, %d tapes per Z\n", n, runs)
	fmt.Fprintln(w, "Z\truns-with-loss\telements-lost-total")
	for _, z := range zs {
		lossRuns, lossTotal := 0, 0
		for r := 0; r < runs; r++ {
			sp := mem.NewSpace()
			keys := distinctKeys(uint64(r)+1, n)
			in := elemsOf(sp, keys)
			p := core.Params{Z: z}
			tape := prng.NewTape(uint64(1000+r), core.TapeLen(n, p))
			res := core.RecORBA(forkjoin.Serial(), sp, in, tape, p)
			if res.Lost > 0 {
				lossRuns++
				lossTotal += res.Lost
			}
		}
		fmt.Fprintf(w, "%d\t%d/%d\t%d\n", z, lossRuns, runs, lossTotal)
	}
	fmt.Fprintln(w, `
Claim (Theorem C.1): overflow probability decays like exp(-Ω(Z)) once Z
exceeds twice the mean load — the loss counts should collapse to zero
within one or two doublings of Z.`)
}
