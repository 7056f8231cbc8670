// Package oram implements the large-space oblivious simulation substrate of
// §4.2 (Theorem 4.2): a batched, recursive tree ORAM in the style of
// Circuit OPRAM [CCS17], adapted per README, "Deviations from the paper", 3.
//
// Structure: logical space s = 2^D words. A small flat oblivious map holds
// the position labels for the first tree level; recursion levels
// d = dStart..D-1 are binary trees whose entries store the (packed) leaf
// labels of their two children prefixes at level d+1; level D is the data
// tree. Every tree is stored in van Emde Boas order (§4.2 modification 1),
// so a path of length L costs O(log_B 2^L) cache misses.
//
// A batch of p requests is processed level by level: per level the
// requested prefixes are obliviously deduplicated (sort + propagate),
// exactly p root-to-leaf paths are read (duplicates and padding read
// random dummy paths), fetched entries are re-planted into a fixed-size
// stash under fresh PRF labels, labels are multicast to duplicate
// requesters by send-receive, and evictFactor·p deterministic
// reverse-lexicographic paths are evicted per tree with an oblivious
// greedy placement built on bin placement (§C.1).
//
// Known deviations (README, "Deviations from the paper", 3): eviction is Path-ORAM-style
// greedy rather than Circuit ORAM's single-scan eviction; fresh labels
// come from a PRF-style mixer rather than true randomness; stash occupancy
// is monitored empirically (Stats) rather than proven.
//
// Per batch: O(p·log²s) work shape (independent of s up to log factors),
// Õ(log s·log p) span, and path reads touching O(log_B s) blocks each.
package oram

import (
	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
	"oblivmc/internal/veb"
)

// Options configures an OPRAM.
type Options struct {
	// BucketCap is the bucket capacity Z (default 4).
	BucketCap int
	// StashCap is the per-tree stash capacity (default 3·batch + 32).
	StashCap int
	// EvictFactor is the number of eviction paths per fetched path
	// (default 2).
	EvictFactor int
	// Seed drives label generation and initialization.
	Seed uint64
	// Sorter is the oblivious sorter (default cache-agnostic bitonic).
	// It must support the key-schedule seam (obliv.ScheduledSorter):
	// the PRAM bulk steps underneath route through it.
	Sorter obliv.ScheduledSorter
}

func (o Options) withDefaults(batch int) Options {
	if o.BucketCap == 0 {
		o.BucketCap = 4
	}
	if o.StashCap == 0 {
		o.StashCap = 3*batch + 32
	}
	if o.EvictFactor == 0 {
		o.EvictFactor = 2
	}
	if o.Sorter == nil {
		o.Sorter = bitonic.CacheAgnostic{}
	}
	return o
}

// Req is one logical memory request.
type Req struct {
	Addr  uint64
	Write bool
	Val   uint64
}

// Stats carries diagnostics read outside the adversary's view.
type Stats struct {
	// StashMax is the maximum stash occupancy observed across trees.
	StashMax int
	// Overflows counts stash-capacity overflow events (entries dropped —
	// the negligible-probability failure; must be 0 in a healthy run).
	Overflows int
	// Misses counts fetches that failed to find their entry (must be 0).
	Misses int
	// Batches counts processed batches.
	Batches int
}

// tree is one recursion level's bucket tree.
type tree struct {
	level   int // entries 2^level, labels in [0, 2^level)
	layout  *veb.Layout
	buckets *mem.Array[obliv.Elem] // nodes × Z, vEB order
	stash   *mem.Array[obliv.Elem]
	evCtr   uint64 // reverse-lexicographic eviction counter
}

// OPRAM is a batched oblivious RAM over 2^D words.
type OPRAM struct {
	d      int // log2 of the logical space
	batch  int // p: requests per batch
	dStart int // first tree level; levels < dStart live in the flat base
	opt    Options
	base   *mem.Array[uint64] // flat labels for level dStart (size 2^dStart)
	trees  []*tree            // levels dStart..D
	flat   *mem.Array[uint64] // degenerate small-space mode: plain values
	stats  Stats
	ctr    uint64 // batch counter (PRF input)
}

// New builds an OPRAM over 2^dLog words serving batches of exactly batch
// requests, initialized to all-zero memory.
func New(c *forkjoin.Ctx, sp *mem.Space, dLog, batch int, opt Options) *OPRAM {
	if dLog < 1 || dLog > 26 {
		panic("oram: dLog out of range")
	}
	if batch < 1 {
		panic("oram: batch must be positive")
	}
	opt = opt.withDefaults(batch)
	o := &OPRAM{d: dLog, batch: batch, opt: opt}

	// dStart: smallest level whose entry count exceeds ~2p.
	o.dStart = 1
	for (1 << o.dStart) <= 2*batch {
		o.dStart++
	}
	if o.dStart >= dLog {
		// Degenerate: the whole space is small; use a flat oblivious array.
		o.flat = mem.Alloc[uint64](sp, 1<<dLog)
		return o
	}

	src := prng.New(prng.Mix64(opt.Seed ^ 0x6f72616d))
	// Initial labels per level: a random permutation, so placements are
	// collision-free and each first access reveals a uniform leaf.
	labels := make([][]uint32, dLog+1)
	for d := o.dStart; d <= dLog; d++ {
		perm := src.Perm(1 << d)
		labels[d] = make([]uint32, 1<<d)
		for q, l := range perm {
			labels[d][q] = uint32(l)
		}
	}

	// Flat base: labels of level dStart.
	o.base = mem.Alloc[uint64](sp, 1<<o.dStart)
	for q := 0; q < 1<<o.dStart; q++ {
		o.base.Data()[q] = uint64(labels[o.dStart][q])
	}

	// Trees for levels dStart..D. Entry q of level d < D stores the packed
	// labels of prefixes 2q, 2q+1 at level d+1; entry q of level D stores
	// the data word (zero).
	for d := o.dStart; d <= dLog; d++ {
		t := &tree{level: d, layout: veb.New(d + 1)}
		t.buckets = mem.Alloc[obliv.Elem](sp, t.layout.Nodes()*opt.BucketCap)
		t.stash = mem.Alloc[obliv.Elem](sp, opt.StashCap)
		// Place entry q directly in its leaf bucket (permutation labels
		// are collision-free, and leaves hold one entry at capacity >= 1).
		for q := 0; q < 1<<d; q++ {
			leaf := int(labels[d][q])
			var val uint64
			if d < dLog {
				val = packLabels(labels[d+1][2*q], labels[d+1][2*q+1])
			}
			bfs := leafBFS(d+1, leaf)
			pos := t.layout.Pos(bfs) * opt.BucketCap
			t.buckets.Data()[pos] = obliv.Elem{
				Key: uint64(q), Val: val, Aux: uint64(leaf), Kind: obliv.Real,
			}
		}
		o.trees = append(o.trees, t)
	}
	return o
}

func packLabels(l0, l1 uint32) uint64 { return uint64(l0)<<32 | uint64(l1) }

func unpackLabel(v uint64, bit uint64) uint32 {
	if bit == 0 {
		return uint32(v >> 32)
	}
	return uint32(v & 0xffffffff)
}

func setLabel(v uint64, bit uint64, l uint32) uint64 {
	if bit == 0 {
		return uint64(l)<<32 | (v & 0xffffffff)
	}
	return (v &^ uint64(0xffffffff)) | uint64(l)
}

// leafBFS returns the BFS index of leaf number `leaf` in a tree with the
// given number of levels.
func leafBFS(levels, leaf int) int {
	return (1 << (levels - 1)) - 1 + leaf
}

// freshLabel derives the replacement label for (batch, level, prefix) —
// a PRF-style mixer so duplicate requesters agree without coordination.
func (o *OPRAM) freshLabel(level int, prefix uint64) uint32 {
	h := prng.Mix64(o.opt.Seed ^ o.ctr<<32 ^ uint64(level)<<56 ^ prefix*0x9e3779b97f4a7c15)
	return uint32(h & uint64((1<<level)-1))
}

// Stats returns the diagnostics snapshot.
func (o *OPRAM) Stats() Stats { return o.stats }

// Space returns the logical space in words.
func (o *OPRAM) Space() int { return 1 << o.d }

// Batch returns the fixed batch size p.
func (o *OPRAM) Batch() int { return o.batch }
