package matrix

import (
	"fmt"
	"testing"
	"testing/quick"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv/oblivtest"
)

func transposeRef(src []int, rows, cols int) []int {
	dst := make([]int, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
	return dst
}

func TestTransposeSmall(t *testing.T) {
	s := mem.NewSpace()
	src := mem.FromSlice(s, []int{1, 2, 3, 4, 5, 6}) // 2x3
	dst := mem.Alloc[int](s, 6)
	Transpose(forkjoin.Serial(), dst, src, 2, 3)
	want := []int{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("dst = %v, want %v", dst.Data(), want)
		}
	}
}

func TestTransposeShapes(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 17}, {17, 1}, {4, 4}, {8, 16}, {16, 8}, {31, 9}, {64, 64}, {3, 100}}
	s := mem.NewSpace()
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		raw := make([]int, rows*cols)
		for i := range raw {
			raw[i] = i * 31
		}
		src := mem.FromSlice(s, raw)
		dst := mem.Alloc[int](s, rows*cols)
		Transpose(forkjoin.Serial(), dst, src, rows, cols)
		want := transposeRef(raw, rows, cols)
		for i := range want {
			if dst.Data()[i] != want[i] {
				t.Fatalf("%dx%d mismatch at %d", rows, cols, i)
			}
		}
	}
}

func TestTransposeParallelMatchesSerial(t *testing.T) {
	const rows, cols = 37, 53
	raw := make([]int, rows*cols)
	for i := range raw {
		raw[i] = i
	}
	s := mem.NewSpace()
	src := mem.FromSlice(s, raw)
	dst := mem.Alloc[int](s, rows*cols)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		Transpose(c, dst, src, rows, cols)
	})
	want := transposeRef(raw, rows, cols)
	for i := range want {
		if dst.Data()[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	// Transposing twice returns the original (property test over shapes).
	f := func(r8, c8 uint8) bool {
		rows := int(r8%20) + 1
		cols := int(c8%20) + 1
		raw := make([]int, rows*cols)
		for i := range raw {
			raw[i] = i * 7
		}
		s := mem.NewSpace()
		src := mem.FromSlice(s, raw)
		tmp := mem.Alloc[int](s, rows*cols)
		back := mem.Alloc[int](s, rows*cols)
		c := forkjoin.Serial()
		Transpose(c, tmp, src, rows, cols)
		Transpose(c, back, tmp, cols, rows)
		for i := range raw {
			if back.Data()[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeBlocks(t *testing.T) {
	// 2x3 matrix of blocks of length 4.
	const rows, cols, bl = 2, 3, 4
	raw := make([]int, rows*cols*bl)
	for i := range raw {
		raw[i] = i
	}
	s := mem.NewSpace()
	src := mem.FromSlice(s, raw)
	dst := mem.Alloc[int](s, len(raw))
	TransposeBlocks(forkjoin.Serial(), dst, src, rows, cols, bl)
	// Block (i,j) of src must equal block (j,i) of dst.
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			for k := 0; k < bl; k++ {
				if dst.Data()[(j*rows+i)*bl+k] != raw[(i*cols+j)*bl+k] {
					t.Fatalf("block (%d,%d) word %d mismatch", i, j, k)
				}
			}
		}
	}
}

func TestTransposeBlocksInvolution(t *testing.T) {
	const rows, cols, bl = 8, 4, 16
	raw := make([]int, rows*cols*bl)
	for i := range raw {
		raw[i] = i * 3
	}
	s := mem.NewSpace()
	src := mem.FromSlice(s, raw)
	tmp := mem.Alloc[int](s, len(raw))
	back := mem.Alloc[int](s, len(raw))
	c := forkjoin.Serial()
	TransposeBlocks(c, tmp, src, rows, cols, bl)
	TransposeBlocks(c, back, tmp, cols, rows, bl)
	for i := range raw {
		if back.Data()[i] != raw[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestTransposeSpanLogarithmic(t *testing.T) {
	span := func(n int) int64 {
		s := mem.NewSpace()
		src := mem.Alloc[int](s, n*n)
		dst := mem.Alloc[int](s, n*n)
		m := forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
			Transpose(c, dst, src, n, n)
		})
		return m.Span
	}
	s16, s64 := span(16), span(64)
	// Quadrupling n (16x work) should grow span by a small additive factor,
	// certainly less than 4x.
	if s64 >= 4*s16 {
		t.Fatalf("span not logarithmic: n=16 -> %d, n=64 -> %d", s16, s64)
	}
}

func TestTransposeCacheScanBound(t *testing.T) {
	// With a tall cache the transpose should be within a small factor of
	// the scan bound 2*n/B (one read + one write stream).
	const n = 64 // 4096 elements
	s := mem.NewSpace()
	src := mem.Alloc[int](s, n*n)
	dst := mem.Alloc[int](s, n*n)
	m := forkjoin.RunMetered(forkjoin.MeterOpts{CacheM: 1 << 10, CacheB: 1 << 4}, func(c *forkjoin.Ctx) {
		Transpose(c, dst, src, n, n)
	})
	scan := int64(2 * n * n / (1 << 4))
	if m.CacheMisses > 4*scan {
		t.Fatalf("transpose misses %d exceed 4x scan bound %d", m.CacheMisses, scan)
	}
}

func TestTransposeShortArrayPanics(t *testing.T) {
	s := mem.NewSpace()
	src := mem.Alloc[int](s, 5)
	dst := mem.Alloc[int](s, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short arrays")
		}
	}()
	Transpose(forkjoin.Serial(), dst, src, 3, 3)
}

// TestTransposeMatchesPerAccess is the differential test of the raw
// transpose tile: square, non-square, thinner and wider than a tile, and
// sizes that leave ragged tiles at the edges, under the metered executor
// (per-access, single cells) and the serial and pool executors (raw tiles).
func TestTransposeMatchesPerAccess(t *testing.T) {
	type entry struct {
		a, b uint64
		c    uint8
	}
	shapes := [][2]int{{1, 1}, {1, 70}, {70, 1}, {3, 5}, {32, 32}, {33, 31}, {64, 128}, {100, 37}, {129, 65}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("%dx%d", rows, cols), func(c *forkjoin.Ctx, sp *mem.Space) []entry {
			src, dst := mem.Alloc[entry](sp, rows*cols), mem.Alloc[entry](sp, rows*cols+3)
			for i := range src.Data() {
				src.Data()[i] = entry{uint64(i), uint64(i) * 3, uint8(i)}
			}
			Transpose(c, dst, src, rows, cols)
			return append([]entry(nil), dst.Data()...)
		})
	}
}

// TestMeteredIgnoresTileConstant pins that the tile side is an unmetered
// tuning constant only: a metered Transpose is the single-cell recursion.
func TestMeteredIgnoresTileConstant(t *testing.T) {
	const rows, cols = 40, 24
	run := func(body func(c *forkjoin.Ctx, dst, src *mem.Array[uint64])) *forkjoin.Metrics {
		return oblivtest.Metered(func(c *forkjoin.Ctx, sp *mem.Space) {
			body(c, mem.Alloc[uint64](sp, rows*cols), mem.Alloc[uint64](sp, rows*cols))
		})
	}
	got := run(func(c *forkjoin.Ctx, dst, src *mem.Array[uint64]) { Transpose(c, dst, src, rows, cols) })
	want := run(func(c *forkjoin.Ctx, dst, src *mem.Array[uint64]) {
		transposeRec(c, dst, src, 0, rows, 0, cols, rows, cols, 1)
	})
	if *got != *want {
		t.Fatalf("metered Transpose %+v is not the single-cell recursion %+v", got, want)
	}
}
