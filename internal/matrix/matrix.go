// Package matrix implements cache-agnostic matrix transposition in the
// binary fork-join model.
//
// Transposition is the workhorse data-movement step of the paper: REC-ORBA
// and REC-SORT transpose √β×√β matrices of bins between their two recursive
// phases (§D.1, §E.2), BITONIC-MERGE transposes element matrices (§E.1.2),
// and the OPRAM "simultaneous removal" step transposes a p×log s matrix
// (§4.2). The recursive halving scheme below incurs O(rc/B) cache misses
// under a tall cache and O(log(rc)) span, matching the costs assumed
// throughout the paper.
package matrix

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// transposeLeaf is the tile side below which the serial and pool executors
// stop forking and move the tile with one raw loop nest: a 32×32 tile is
// ~1k element moves, a block of work large enough for a stolen task to pay
// for itself, while both its source rows and its destination rows still sit
// in L1. Metered runs ignore it and fork all the way down to single cells so
// that the measured span is the span of the fully forked computation the
// paper's bounds describe (matching ParallelFor's grain-1 policy).
const transposeLeaf = 32

// Transpose writes the transpose of src (rows×cols, row-major) into dst
// (cols×rows, row-major). dst must not alias src.
func Transpose[T any](c *forkjoin.Ctx, dst, src *mem.Array[T], rows, cols int) {
	if src.Len() < rows*cols || dst.Len() < rows*cols {
		panic("matrix: short arrays")
	}
	leaf := transposeLeaf
	if c.Metered() {
		leaf = 1
	}
	transposeRec(c, dst, src, 0, rows, 0, cols, rows, cols, leaf)
}

// transposeRec transposes the tile src[r0:r1) × [c0:c1).
func transposeRec[T any](c *forkjoin.Ctx, dst, src *mem.Array[T], r0, r1, c0, c1, rows, cols, leaf int) {
	dr, dc := r1-r0, c1-c0
	if dr <= leaf && dc <= leaf {
		if s := src.Raw(c); s != nil {
			// Destination-major: the writes of a tile are sequential and
			// the strided side is the reads. Rows of a power-of-two matrix
			// are a multiple of 4 KiB apart, so strided *writes* would all
			// land in one L1 set and stall on each other (2.3× slower).
			d := dst.Raw(c)
			for j := c0; j < c1; j++ {
				row := d[j*rows+r0 : j*rows+r1]
				for i := range row {
					row[i] = s[(r0+i)*cols+j]
				}
			}
			return
		}
		for i := r0; i < r1; i++ {
			for j := c0; j < c1; j++ {
				dst.Set(c, j*rows+i, src.Get(c, i*cols+j))
			}
		}
		return
	}
	if dr >= dc {
		rm := r0 + dr/2
		c.Fork(
			func(c *forkjoin.Ctx) { transposeRec(c, dst, src, r0, rm, c0, c1, rows, cols, leaf) },
			func(c *forkjoin.Ctx) { transposeRec(c, dst, src, rm, r1, c0, c1, rows, cols, leaf) },
		)
		return
	}
	cm := c0 + dc/2
	c.Fork(
		func(c *forkjoin.Ctx) { transposeRec(c, dst, src, r0, r1, c0, cm, rows, cols, leaf) },
		func(c *forkjoin.Ctx) { transposeRec(c, dst, src, r0, r1, cm, c1, rows, cols, leaf) },
	)
}

// TransposeBlocks transposes a rows×cols matrix whose entries are
// fixed-length blocks of blockLen consecutive elements (the "matrix of
// bins" of REC-ORBA/REC-SORT: each entry is one bin). dst must not alias
// src.
func TransposeBlocks[T any](c *forkjoin.Ctx, dst, src *mem.Array[T], rows, cols, blockLen int) {
	if src.Len() < rows*cols*blockLen || dst.Len() < rows*cols*blockLen {
		panic("matrix: short arrays")
	}
	blockRec(c, dst, src, 0, rows, 0, cols, rows, cols, blockLen)
}

func blockRec[T any](c *forkjoin.Ctx, dst, src *mem.Array[T], r0, r1, c0, c1, rows, cols, bl int) {
	dr, dc := r1-r0, c1-c0
	if dr == 1 && dc == 1 {
		// The per-bin copy itself forks (grain 1 under metering) so block
		// transposition has O(log(rows·cols·bl)) span, matching §D.1.
		mem.CopyPar(c, dst, (c0*rows+r0)*bl, src, (r0*cols+c0)*bl, bl)
		return
	}
	if dr >= dc {
		rm := r0 + dr/2
		c.Fork(
			func(c *forkjoin.Ctx) { blockRec(c, dst, src, r0, rm, c0, c1, rows, cols, bl) },
			func(c *forkjoin.Ctx) { blockRec(c, dst, src, rm, r1, c0, c1, rows, cols, bl) },
		)
		return
	}
	cm := c0 + dc/2
	c.Fork(
		func(c *forkjoin.Ctx) { blockRec(c, dst, src, r0, r1, c0, cm, rows, cols, bl) },
		func(c *forkjoin.Ctx) { blockRec(c, dst, src, r0, r1, cm, c1, rows, cols, bl) },
	)
}
