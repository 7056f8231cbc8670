package mem_test

// External test package: oblivtest imports mem.

import (
	"fmt"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv/oblivtest"
)

// TestCopyFillMatchPerAccess is the differential test of the raw copy and
// fill: one memmove or store loop per leaf on the serial and pool executors,
// element-by-element Get/Set under metering, same bytes either way.
func TestCopyFillMatchPerAccess(t *testing.T) {
	type entry struct {
		a uint64
		b uint8
	}
	for _, n := range []int{0, 1, 63, 4096, 4097, 10000} {
		oblivtest.SameOnEveryExecutor(t, fmt.Sprintf("n=%d", n), func(c *forkjoin.Ctx, sp *mem.Space) [][]entry {
			src, dst, par, fill := mem.Alloc[entry](sp, n+9), mem.Alloc[entry](sp, n+9), mem.Alloc[entry](sp, n+9), mem.Alloc[entry](sp, n)
			for i := range src.Data() {
				src.Data()[i] = entry{uint64(i) * 7, uint8(i)}
			}
			mem.Copy(c, dst, 2, src, 5, n)
			mem.CopyPar(c, par, 4, src, 1, n)
			mem.Fill(c, fill, entry{42, 7})
			return [][]entry{
				append([]entry(nil), dst.Data()...), append([]entry(nil), par.Data()...), append([]entry(nil), fill.Data()...),
			}
		})
	}
}

// TestRawIsNilUnderMetering pins the door: the metered executor never gets
// the backing slice, the recording-free executors always do.
func TestRawIsNilUnderMetering(t *testing.T) {
	a := mem.Alloc[uint64](mem.NewSpace(), 4)
	forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) {
		if a.Raw(c) != nil {
			t.Fatal("Raw handed the backing slice to a metered run")
		}
	})
	if got := a.Raw(forkjoin.Serial()); len(got) != 4 {
		t.Fatalf("Raw on the serial executor: len %d, want 4", len(got))
	}
	forkjoin.RunParallel(2, func(c *forkjoin.Ctx) {
		if got := a.View(1, 2).Raw(c); len(got) != 2 {
			t.Errorf("Raw of a view on the pool executor: len %d, want 2", len(got))
		}
	})
}
