package matrix

import (
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// BenchmarkTransposeTile times a 256×128 transpose of 48-byte entries (the
// size of an obliv.Elem; the shape of the first transpose of a 2^15-element
// bitonic merge) on the serial executor: 32 raw 32×32 tiles under a
// five-level fork tree.
func BenchmarkTransposeTile(b *testing.B) {
	type entry [6]uint64
	const rows, cols = 256, 128
	sp := mem.NewSpace()
	src, dst := mem.Alloc[entry](sp, rows*cols), mem.Alloc[entry](sp, rows*cols)
	for i := range src.Data() {
		src.Data()[i][0] = uint64(i)
	}
	c := forkjoin.Serial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(c, dst, src, rows, cols)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*cols), "ns/elem")
}
