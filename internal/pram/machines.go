package pram

// This file provides concrete CRCW machines used by the tests, the
// examples, and the Table 2 "PRAM step" benchmarks.

import "oblivmc/internal/obliv"

// PointerJumpMachine performs Wyllie-style pointer jumping for list
// ranking: memory holds [succ_0, rank_0, succ_1, rank_1, ...]; after
// ceil(log2 n) rounds, rank_i is the distance from i to the list tail.
// Each round takes four PRAM steps (two reads, two writes), keeping to one
// memory operation per processor per step.
type PointerJumpMachine struct {
	N    int
	Succ []int // initial successor array; Succ[i] == i marks the tail
}

// Local register layout.
const (
	pjSucc = iota // current successor
	pjRank        // accumulated rank
	pjTmpRank
	pjTmpSucc
	pjWords
)

// Procs implements Machine.
func (m *PointerJumpMachine) Procs() int { return m.N }

// Space implements Machine.
func (m *PointerJumpMachine) Space() int { return 2 * m.N }

// Steps implements Machine: four steps per jumping round.
func (m *PointerJumpMachine) Steps() int { return 4 * obliv.Log2Ceil(m.N) }

// LocalWords implements Machine.
func (m *PointerJumpMachine) LocalWords() int { return pjWords }

// Init implements Machine.
func (m *PointerJumpMachine) Init(proc int, local []uint64) {
	local[pjSucc] = uint64(m.Succ[proc])
	if m.Succ[proc] == proc {
		local[pjRank] = 0
	} else {
		local[pjRank] = 1
	}
}

// InitialMemory returns the memory image matching Init.
func (m *PointerJumpMachine) InitialMemory() []uint64 {
	mm := make([]uint64, 2*m.N)
	for i := 0; i < m.N; i++ {
		mm[2*i] = uint64(m.Succ[i])
		if m.Succ[i] != i {
			mm[2*i+1] = 1
		}
	}
	return mm
}

// ReadAddr implements Machine.
func (m *PointerJumpMachine) ReadAddr(t, proc int, local []uint64) int {
	succ := int(local[pjSucc])
	switch t % 4 {
	case 0:
		return 2*succ + 1 // rank of successor
	case 1:
		return 2 * succ // successor of successor
	}
	return -1
}

// Compute implements Machine.
func (m *PointerJumpMachine) Compute(t, proc int, local []uint64, read uint64, ok bool) (int, uint64) {
	self := uint64(proc)
	switch t % 4 {
	case 0:
		local[pjTmpRank] = read
		return -1, 0
	case 1:
		local[pjTmpSucc] = read
		return -1, 0
	case 2:
		if local[pjSucc] != self {
			local[pjRank] += local[pjTmpRank]
		}
		return 2*proc + 1, local[pjRank]
	default:
		if local[pjSucc] != self {
			local[pjSucc] = local[pjTmpSucc]
		}
		return 2 * proc, local[pjSucc]
	}
}

// Ranks extracts the rank array from a final memory image.
func (m *PointerJumpMachine) Ranks(memory []uint64) []int {
	out := make([]int, m.N)
	for i := range out {
		out[i] = int(memory[2*i+1])
	}
	return out
}

// MaxMachine computes the maximum of N values by a binary tournament:
// round t halves the live prefix; proc i < live/2 reads cell i+live/2 and
// writes max(own, read) to cell i. After log2(N) rounds cell 0 holds the
// maximum. N must be a power of two.
type MaxMachine struct {
	N      int
	Values []uint64
}

// Procs implements Machine.
func (m *MaxMachine) Procs() int { return m.N }

// Space implements Machine.
func (m *MaxMachine) Space() int { return m.N }

// Steps implements Machine: one warm-up read plus the tournament rounds.
func (m *MaxMachine) Steps() int { return 1 + obliv.Log2Ceil(m.N) }

// LocalWords implements Machine.
func (m *MaxMachine) LocalWords() int { return 1 }

// Init implements Machine.
func (m *MaxMachine) Init(proc int, local []uint64) { local[0] = 0 }

// InitialMemory returns the memory image.
func (m *MaxMachine) InitialMemory() []uint64 {
	mm := make([]uint64, m.N)
	copy(mm, m.Values)
	return mm
}

// ReadAddr implements Machine.
func (m *MaxMachine) ReadAddr(t, proc int, local []uint64) int {
	if t == 0 {
		return proc // cache own value
	}
	live := m.N >> uint(t-1)
	if proc < live/2 {
		return proc + live/2
	}
	return -1
}

// Compute implements Machine.
func (m *MaxMachine) Compute(t, proc int, local []uint64, read uint64, ok bool) (int, uint64) {
	if t == 0 {
		local[0] = read
		return -1, 0
	}
	live := m.N >> uint(t-1)
	if proc < live/2 && ok {
		if read > local[0] {
			local[0] = read
		}
		return proc, local[0]
	}
	return -1, 0
}

// AddConstMachine adds K to every memory cell in a single step — the
// smallest possible machine, used to sanity-check the simulators.
type AddConstMachine struct {
	N int
	K uint64
}

// Procs implements Machine.
func (m *AddConstMachine) Procs() int { return m.N }

// Space implements Machine.
func (m *AddConstMachine) Space() int { return m.N }

// Steps implements Machine.
func (m *AddConstMachine) Steps() int { return 1 }

// LocalWords implements Machine.
func (m *AddConstMachine) LocalWords() int { return 1 }

// Init implements Machine.
func (m *AddConstMachine) Init(proc int, local []uint64) {}

// ReadAddr implements Machine.
func (m *AddConstMachine) ReadAddr(t, proc int, local []uint64) int { return proc }

// Compute implements Machine.
func (m *AddConstMachine) Compute(t, proc int, local []uint64, read uint64, ok bool) (int, uint64) {
	return proc, read + m.K
}

// ConflictMachine has every processor write its id+Base to cell 0 in one
// step; priority CRCW must keep processor 0's value. Used to verify
// conflict resolution.
type ConflictMachine struct {
	P    int
	Base uint64
}

// Procs implements Machine.
func (m *ConflictMachine) Procs() int { return m.P }

// Space implements Machine.
func (m *ConflictMachine) Space() int { return 4 }

// Steps implements Machine.
func (m *ConflictMachine) Steps() int { return 1 }

// LocalWords implements Machine.
func (m *ConflictMachine) LocalWords() int { return 1 }

// Init implements Machine.
func (m *ConflictMachine) Init(proc int, local []uint64) {}

// ReadAddr implements Machine.
func (m *ConflictMachine) ReadAddr(t, proc int, local []uint64) int { return -1 }

// Compute implements Machine.
func (m *ConflictMachine) Compute(t, proc int, local []uint64, read uint64, ok bool) (int, uint64) {
	return 0, m.Base + uint64(proc)
}
