package graph

import (
	"oblivmc/internal/core"
	"oblivmc/internal/faultinject"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
)

// ConnectedComponentsMinHook labels the components of an undirected graph
// by min-label hooking with double pointer-jumping — the streamlined
// workload variant of ConnectedComponentsOblivious. Each round is three
// oblivious bulk operations (one batched endpoint gather over both
// orientations, one min-combining conflict-resolved scatter, two pointer
// jumps), 3 oblivious sorts and 3 un-sorts: the endpoint addresses are
// static, so their request sort is recorded once, in the first round, and
// every round's endpoint gather only replays it (pram.Gatherer). The
// run allocates its PRAM work space once: the scatter's request planes
// (pram.Scatterer), one gatherer the jumps re-sort onto each jump's
// addresses, one router all of them share, and the convergence test's
// scan tree. An Awerbuch–Shiloach iteration (ConnectedComponentsOblivious)
// sorts 7 times, against 3 here, and runs a fixed 3·⌈log₂ n⌉+5 of them.
//
// Correctness invariants: labels are always vertex ids of the own
// component and only ever decrease (the scatter is min-combining, and
// hooks write lo = min(D[u], D[v]) to the vertex named by the larger
// label, so D[x] <= x throughout and the pointer graph stays acyclic);
// a round that changes nothing has every edge label-equal and every
// pointer jump stable, which forces the converged labels to be exactly
// the minimum vertex id of each component.
//
// rounds > 0 runs exactly that many rounds with no convergence check: the
// access pattern is then a deterministic function of (n, m, rounds) alone
// — the shape the trace-fingerprint tests pin — at the price that too few
// rounds returns a partial (under-merged) partition. rounds == 0 runs to
// convergence and reveals the round count (same deviation class as the
// MSF iteration count; each non-converged round strictly decreases the
// label sum, so termination is unconditional and takes O(log n) rounds in
// practice).
//
// Labels serve as scatter priorities, which the address-keyed conflict
// resolution orders exactly at any value, so n has no cap of its own.
// Returns the labels and the number of rounds executed. p is unused — every
// sort is the bitonic network's word-plane sort, whatever p.Sorter is — and
// stays only because the benchmark harness passes it, until that harness
// stops calling the kernel (ROADMAP item 1 slice 2).
func ConnectedComponentsMinHook(c *forkjoin.Ctx, sp *mem.Space, n int, edges [][2]int, rounds int, p core.Params) ([]int, int) {
	if n == 0 {
		return nil, 0
	}
	m := len(edges)

	d := mem.Alloc[uint64](sp, n)
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for v := lo; v < hi; v++ {
			d.Set(c, v, uint64(v))
		}
	})

	// Static endpoint address array: both orientations, interleaved, so a
	// single gather fetches D[u] and D[v] for every edge.
	addrs := mem.Alloc[uint64](sp, max(2*m, 1))
	forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for e := lo; e < hi; e++ {
			addrs.Set(c, 2*e, uint64(edges[e][0]))
			addrs.Set(c, 2*e+1, uint64(edges[e][1]))
		}
	})

	// One router serves every send-receive of the run: the endpoint
	// gather's n + NextPow2(2m) slots cover the scatter's m + n, and the
	// jumps' n + NextPow2(n) are the other bound. The scatter's request
	// planes and the jumps' gatherer are allocated once, too.
	route := obliv.NewRouter(sp, n, max(obliv.NextPow2(2*m), obliv.NextPow2(n)))
	jumps := newJumper(sp, n, route)
	var endpoints *pram.Gatherer // recorded in the first round
	var hooks *pram.Scatterer
	if m > 0 {
		hooks = pram.NewScatterer(sp, n, m, route)
	}
	fixed := rounds > 0
	prev := mem.Alloc[uint64](sp, n)
	changed := mem.Alloc[uint64](sp, n)
	var changedSum *mem.Array[uint64] // the convergence test's scan tree
	if !fixed {
		changedSum = mem.Alloc[uint64](sp, 2*n-1)
	}
	executed := 0
	for {
		if fixed && executed == rounds {
			break
		}
		// Cancellation checkpoint between rounds: the round boundary is
		// public (fixed count, or a count the convergence mode reveals
		// anyway), so an abort here reveals only the round index.
		c.Check("graph.round")
		faultinject.Hit("graph.round")
		if !fixed {
			mem.CopyPar(c, prev, 0, d, 0, n)
		}

		if m > 0 {
			// Hook: for every cross edge, write the smaller endpoint label
			// to the vertex named by the larger, with the smaller label as
			// priority — so each written vertex receives the minimum
			// proposal, and the min-combining scatter keeps labels
			// monotonically decreasing. An edge inside one component
			// requests InfKey, which writes nothing.
			if endpoints == nil {
				// After the first round's checkpoint, so the round
				// boundary stays the first cancellation site.
				endpoints = pram.NewGatherer(c, sp, n, addrs, route)
			}
			labels := endpoints.Values(c, sp, d)
			addr, prio, val := hooks.Requests()
			forkjoin.ParallelRange(c, 0, m, 0, func(c *forkjoin.Ctx, fr, to int) {
				for e := fr; e < to; e++ {
					du := labels.Get(c, 2*e)
					dv := labels.Get(c, 2*e+1)
					lo, hi := du, dv
					if lo > hi {
						lo, hi = hi, lo
					}
					a := obliv.InfKey
					c.Op(1)
					if lo != hi {
						a = hi
					}
					addr.Set(c, e, a)
					prio.Set(c, e, lo)
					val.Set(c, e, lo)
				}
			})
			hooks.ResolveMin(c, sp, d)
		}

		// Double pointer jump: D[w] <- D[D[w]], twice.
		jumps.jump(c, sp, d)
		jumps.jump(c, sp, d)
		executed++

		if !fixed {
			forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, fr, to int) {
				for v := fr; v < to; v++ {
					ch := uint64(0)
					c.Op(1)
					if d.Get(c, v) != prev.Get(c, v) {
						ch = 1
					}
					changed.Set(c, v, ch)
				}
			})
			if obliv.SumU64With(c, changed, changedSum) == 0 {
				break
			}
		}
	}

	out := make([]int, n)
	for v := range out {
		out[v] = int(d.Data()[v])
	}
	return out, executed
}
