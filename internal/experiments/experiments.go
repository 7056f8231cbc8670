// Package experiments regenerates every table and figure of the paper
// (cmd/oblivbench lists the experiments): measured work, span and
// ideal-cache misses come from the metered executor, and each row is
// printed next to the paper's asymptotic claim plus a normalized factor
// (measured / bound), which should stay roughly flat across sizes when the
// implementation matches the claimed shape.
package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// DefaultCacheM and DefaultCacheB are the harness cache parameters (in
// elements).
const (
	DefaultCacheM = 1 << 12
	DefaultCacheB = 1 << 5
)

// Meter runs fn under the metered executor with the given cache.
func Meter(cacheM, cacheB int, fn func(c *forkjoin.Ctx, sp *mem.Space)) *forkjoin.Metrics {
	sp := mem.NewSpace()
	return forkjoin.RunMetered(forkjoin.MeterOpts{CacheM: cacheM, CacheB: cacheB},
		func(c *forkjoin.Ctx) { fn(c, sp) })
}

// Row is one measured configuration.
type Row struct {
	Task string
	Impl string
	N    int
	M    *forkjoin.Metrics
	// Norm are the normalization divisors for (work, span, misses): the
	// paper's bound evaluated at N. Factors = measured/Norm.
	NormW, NormS, NormQ float64
}

func lg(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

func loglog(n int) float64 {
	l := lg(n)
	if l < 2 {
		return 1
	}
	return math.Log2(l)
}

// logM returns log_M(n) clamped at 1.
func logM(n, m int) float64 {
	if n <= m {
		return 1
	}
	v := math.Log(float64(n)) / math.Log(float64(m))
	if v < 1 {
		return 1
	}
	return v
}

// writeRows prints rows with normalized factors.
func writeRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "task\timpl\tn\twork\tspan\tcache-misses\tW/bound\tT/bound\tQ/bound")
	for _, r := range rows {
		fw, fs, fq := "-", "-", "-"
		if r.NormW > 0 {
			fw = fmt.Sprintf("%.2f", float64(r.M.Work)/r.NormW)
		}
		if r.NormS > 0 {
			fs = fmt.Sprintf("%.2f", float64(r.M.Span)/r.NormS)
		}
		if r.NormQ > 0 {
			fq = fmt.Sprintf("%.2f", float64(r.M.CacheMisses)/r.NormQ)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			r.Task, r.Impl, r.N, r.M.Work, r.M.Span, r.M.CacheMisses, fw, fs, fq)
	}
	tw.Flush()
}
