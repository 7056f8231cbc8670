package oblivmc

import (
	"fmt"

	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/graph"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/oram"
	"oblivmc/internal/pram"
)

// Sort sorts keys data-obliviously with the paper's practical variant
// (Theorem 3.2 pipeline with REC-SORT, §3.4/§E): the adversary's view is
// independent of the key values. Keys must be < 2^62 and, for the
// security argument of [CGLS18/ACN+20] to apply, distinct.
func Sort(cfg Config, keys []uint64) ([]uint64, *Report, error) {
	if err := checkKeys(keys); err != nil {
		return nil, nil, err
	}
	out := make([]uint64, len(keys))
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		res := core.SortKeys(c, sp, keys, cfg.Seed, core.Params{})
		copy(out, res)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// Shuffle applies a uniformly random oblivious permutation (§C.3/§D.2) to
// keys: the adversary's view reveals nothing about the permutation.
func Shuffle(cfg Config, keys []uint64) ([]uint64, *Report, error) {
	if err := checkKeys(keys); err != nil {
		return nil, nil, err
	}
	out := make([]uint64, len(keys))
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		in := mem.Alloc[obliv.Elem](sp, len(keys))
		for i, k := range keys {
			in.Data()[i] = obliv.Elem{Key: k, Kind: obliv.Real}
		}
		perm, _ := core.MustRandomPermutation(c, sp, in, cfg.Seed, core.Params{})
		for i, e := range perm.Data() {
			out[i] = e.Key
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// ListRank obliviously realizes weighted list ranking (Theorem 5.1):
// succ[i] is i's successor (succ[i] == i marks the tail); the result's
// entry i is the sum of weights of the elements strictly ahead of i
// (weights nil = unit weights, i.e. distance to the tail). Weights must be
// < 2^32. The oblivious random permutation's bin sorts run on
// cfg.SortBackend; the routing around the pointer jumps — two
// conflict-resolved scatters and one gather over word planes — sorts on
// the cache-agnostic bitonic network whatever the backend.
func ListRank(cfg Config, succ []int, weights []uint64) ([]uint64, *Report, error) {
	if len(succ) == 0 {
		return nil, nil, ErrEmptyInput
	}
	for i, s := range succ {
		if s < 0 || s >= len(succ) {
			return nil, nil, fmt.Errorf("oblivmc: succ[%d] = %d out of range", i, s)
		}
	}
	var out []uint64
	rep, err := run(cfg, func(e exec, c *forkjoin.Ctx, sp *mem.Space) {
		out = graph.ListRankOblivious(c, sp, succ, weights, cfg.Seed, e.graphParams())
	})
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// TreeInfo carries per-vertex rooted-tree quantities (§5.2).
type TreeInfo struct {
	Parent      []int
	Depth       []uint64
	Preorder    []uint64
	Postorder   []uint64
	SubtreeSize []uint64
}

// TreeFunctions roots the tree (given as an edge list over vertices
// 0..n-1) at root and obliviously computes parent, depth, preorder and
// postorder numbers, and subtree sizes via Euler tour + list ranking
// (§5.2): one recorded sort of the arc keys and its un-sort for the tour,
// two list rankings of the tour (see ListRank) that share one permutation
// and one successor routing — the second, weighted by the forward arcs,
// only replays the successor gather, jumps and writes its ranks home —
// and three conflict-resolved vertex writes. Every sort but the
// permutation's bin sorts runs on the cache-agnostic bitonic network
// whatever cfg.SortBackend says.
func TreeFunctions(cfg Config, n int, edges [][2]int, root int) (TreeInfo, *Report, error) {
	if n <= 0 {
		return TreeInfo{}, nil, ErrEmptyInput
	}
	if len(edges) != n-1 {
		return TreeInfo{}, nil, fmt.Errorf("oblivmc: tree on %d vertices needs %d edges, got %d", n, n-1, len(edges))
	}
	if root < 0 || root >= n {
		return TreeInfo{}, nil, fmt.Errorf("oblivmc: root %d out of range", root)
	}
	var tf graph.TreeFuncs
	rep, err := run(cfg, func(e exec, c *forkjoin.Ctx, sp *mem.Space) {
		tf = graph.TreeFunctionsOblivious(c, sp, n, edges, root, cfg.Seed, e.graphParams())
	})
	if err != nil {
		return TreeInfo{}, nil, err
	}
	return TreeInfo(tf), rep, nil
}

// ExpressionTree is a full binary arithmetic expression tree over Z/2^64:
// every internal node has exactly two children (Left/Right = -1 marks a
// leaf) and an operation (OpAdd or OpMul); leaves carry values.
type ExpressionTree struct {
	N       int
	Root    int
	Left    []int
	Right   []int
	Op      []uint8
	LeafVal []uint64
}

// Expression-tree operations.
const (
	OpAdd uint8 = 0
	OpMul uint8 = 1
)

// EvaluateExpressionTree evaluates t by oblivious tree contraction
// (Theorem 5.2(i)): Kosaraju–Delcher rake rounds with oblivious bulk
// operations and per-round oblivious compaction, after one list ranking
// that numbers the leaves (see ListRank). A round's gathers, writes and
// compaction sort run on the cache-agnostic bitonic network whatever
// cfg.SortBackend says: 20 sorts per round, ⌈log₂ leaves⌉ rounds.
func EvaluateExpressionTree(cfg Config, t ExpressionTree) (uint64, *Report, error) {
	gt := graph.ExprTree(t)
	if !gt.Validate() {
		return 0, nil, fmt.Errorf("oblivmc: expression tree must be full binary")
	}
	var out uint64
	rep, err := run(cfg, func(e exec, c *forkjoin.Ctx, sp *mem.Space) {
		out = graph.EvalTreeOblivious(c, sp, gt, cfg.Seed, e.graphParams())
	})
	if err != nil {
		return 0, nil, err
	}
	return out, rep, nil
}

// ConnectedComponents obliviously labels the connected components of an
// undirected graph (Theorem 5.2(ii), Shiloach–Vishkin/Awerbuch–Shiloach):
// vertices share a label iff connected. The access pattern depends only on
// (n, number of edges).
func ConnectedComponents(cfg Config, n int, edges [][2]int) ([]int, *Report, error) {
	if n <= 0 {
		return nil, nil, ErrEmptyInput
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, nil, fmt.Errorf("oblivmc: edge %v out of range", e)
		}
	}
	var out []int
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		out = graph.ConnectedComponentsOblivious(c, sp, n, edges)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// WeightedEdge is an undirected weighted edge (endpoints U, V and weight
// W) — the graph layer's own edge type, so edge lists reach it uncopied.
type WeightedEdge = graph.WEdge

// MinimumSpanningForest obliviously computes the minimum spanning forest
// (Theorem 5.2(ii) via Borůvka star-hooking; see README, "Deviations from
// the paper", 4, for the PR02 substitution) and returns the indices of the chosen edges. Ties are
// broken by edge index, making the forest unique. Requirements: n, m <
// 2^21, weights < 2^20.
func MinimumSpanningForest(cfg Config, n int, edges []WeightedEdge) ([]int, *Report, error) {
	if n <= 0 {
		return nil, nil, ErrEmptyInput
	}
	if err := checkMSF(n, edges); err != nil {
		return nil, nil, err
	}
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, nil, fmt.Errorf("oblivmc: edge %d out of range", i)
		}
	}
	var out []int
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		out = graph.MinimumSpanningForestOblivious(c, sp, n, edges)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// PRAMMachine re-exports the CRCW machine interface accepted by
// SimulatePRAM (see internal/pram for the contract).
type PRAMMachine = pram.Machine

// SimulatePRAM executes a priority-CRCW PRAM program under the oblivious
// space-bounded simulation of Theorem 4.1 (each step: one oblivious
// send-receive read phase, oblivious conflict resolution, one send-receive
// write phase) and returns the final memory image.
func SimulatePRAM(cfg Config, m PRAMMachine, memInit []uint64) ([]uint64, *Report, error) {
	if m.Procs() <= 0 || m.Space() <= 0 {
		return nil, nil, ErrEmptyInput
	}
	var out []uint64
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		out = pram.RunOblivious(c, sp, m, memInit)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// ORAM is a batched oblivious RAM over 2^SpaceLog words (the large-space
// simulation substrate of Theorem 4.2). It must be created and used under
// a single executor via WithORAM.
type ORAM = oram.OPRAM

// ORAMRequest is one logical request to an ORAM batch.
type ORAMRequest = oram.Req

// WithORAM creates an ORAM over 2^spaceLog words serving batches of
// exactly batch requests and passes it, together with the execution
// context, to body. Access batches are issued via the returned closure.
func WithORAM(cfg Config, spaceLog, batch int, body func(access func([]ORAMRequest) []uint64)) (*Report, error) {
	if spaceLog < 1 || batch < 1 {
		return nil, ErrEmptyInput
	}
	rep, err := run(cfg, func(_ exec, c *forkjoin.Ctx, sp *mem.Space) {
		o := oram.New(c, sp, spaceLog, batch, oram.Options{Seed: cfg.Seed})
		body(func(reqs []ORAMRequest) []uint64 {
			return o.Access(c, sp, reqs)
		})
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func checkKeys(keys []uint64) error {
	if len(keys) == 0 {
		return ErrEmptyInput
	}
	for i, k := range keys {
		if k >= obliv.MaxKey {
			return fmt.Errorf("oblivmc: key %d (index %d) exceeds 2^62-1", k, i)
		}
	}
	return nil
}
