//go:build !amd64

package obliv

// hasAVX512 is false off amd64: the raw plane comparator and replay run
// their portable Go loops.
func hasAVX512() bool { return false }

func planeRunAVX512(k0, k1, v []uint64, lo, stride, u0, u1, period int, desc uint64, rec []uint64, q int) {
	panic("obliv: no vector plane kernel on this architecture")
}

func replayRunAVX512(p []uint64, lo, stride, u0, u1 int, rec []uint64, q int) {
	panic("obliv: no vector replay kernel on this architecture")
}
