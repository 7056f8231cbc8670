package forkjoin

// DefaultGrain is the leaf size used by ParallelFor in parallel mode when
// the caller passes grain <= 0. In metered mode the grain is always 1 so
// that the measured span is the span of the fully forked binary tree, which
// is what the paper's bounds describe.
const DefaultGrain = 64

// grain resolves the effective leaf size for c.
func grainFor(c *Ctx, g int) int {
	if c.Metered() {
		return 1
	}
	if g <= 0 {
		return DefaultGrain
	}
	return g
}

// ParallelFor executes body(i) for i in [lo, hi) using a binary fork tree,
// the canonical way a k-way parallel loop is expressed in the binary
// fork-join model (footnote a of the REC-ORBA pseudocode). Its fork tree is
// ParallelRange's.
func ParallelFor(c *Ctx, lo, hi, grain int, body func(*Ctx, int)) {
	ParallelRange(c, lo, hi, grain, func(c *Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
	})
}

// ParallelRange is like ParallelFor but hands each leaf the whole [lo, hi)
// subrange, letting hot loops avoid per-index closure calls.
func ParallelRange(c *Ctx, lo, hi, grain int, body func(*Ctx, int, int)) {
	g := grainFor(c, grain)
	var rec func(c *Ctx, lo, hi int)
	rec = func(c *Ctx, lo, hi int) {
		if hi-lo <= g {
			body(c, lo, hi)
			return
		}
		mid := lo + (hi-lo)/2
		c.Fork(
			func(c *Ctx) { rec(c, lo, mid) },
			func(c *Ctx) { rec(c, mid, hi) },
		)
	}
	if hi > lo {
		rec(c, lo, hi)
	}
}
