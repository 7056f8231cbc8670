package obliv

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"oblivmc/internal/prng"
)

// forEachPath runs f once per raw-kernel path the machine has — the
// portable Go chunk loops and, where the CPU has AVX-512, the vector ones —
// as subtests named after the path, and restores the detected path after.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	detected := useAVX512
	defer func() { useAVX512 = detected }()
	for _, vec := range []bool{false, true} {
		if vec && !hasAVX512() {
			continue
		}
		useAVX512 = vec
		name := "portable"
		if vec {
			name = "avx512"
		}
		t.Run(name, f)
	}
}

// TestAVX512Detected: where the kernel lists avx512f and avx512dq in
// /proc/cpuinfo, the CPUID stub must find them too and the vector path
// must be on — a misread feature bit would ship the portable path, and no
// test of the vector kernels would run.
func TestAVX512Detected(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("reads /proc/cpuinfo on linux/amd64; this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, ln := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	listed := slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512dq")
	if listed && (!hasAVX512() || !useAVX512) {
		t.Fatalf("/proc/cpuinfo lists avx512f and avx512dq, but hasAVX512() = %v and useAVX512 = %v", hasAVX512(), useAVX512)
	}
	if !listed && hasAVX512() {
		t.Fatal("hasAVX512() is true where /proc/cpuinfo lists no avx512f and avx512dq")
	}
	t.Logf("avx512f and avx512dq listed: %v", listed)
}

// boundaryKeys are the key words the vector compare must order as
// unsigned 64-bit integers: both sides of the sign bit, the largest word
// (InfKey) and its neighbours. Drawn with repeats, they make equal keys.
var boundaryKeys = []uint64{0, 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, InfKey - 1, InfKey}

// FuzzPlaneRunVector pits the vector chunk loops against the portable ones
// on one layer's pairs u0 <= u < u0+cnt, cnt = 1..64, recording from bit q
// (every offset in a word), at stride 8..64 from an offset inside a run,
// with the direction flipping per run or not: in both directions, over one
// and two key planes, with and without a carried plane and a record, the
// sort must leave the same planes and record words, and a replay of that
// record over a word plane the same plane. Keys are drawn from
// boundaryKeys and random words. The seeds cover every count and every
// starting bit offset.
func FuzzPlaneRunVector(f *testing.F) {
	for cnt := 1; cnt <= 64; cnt++ {
		for q := 0; q < 64; q++ {
			f.Add(uint8(cnt), uint8(q), uint8(cnt+q), uint64(cnt<<6|q))
		}
	}
	f.Fuzz(func(t *testing.T, cnt, q, shape uint8, seed uint64) {
		if !hasAVX512() {
			t.Skip("no AVX-512 on this CPU")
		}
		n, bit := int(cnt)%64+1, int(q)%64
		stride := 8 << (shape & 3)
		u0 := int(shape>>2) % (2 * stride)
		period := []int{0, 2 * stride, 4 * stride, 0}[shape>>6]
		lo := int(seed % 7)
		u1 := u0 + n
		size := lo + 2*(u1+stride)
		words := (bit + u1 + 63) >> 6
		src := prng.New(seed)
		word := func() uint64 {
			if i := src.Uint64n(uint64(len(boundaryKeys)) + 1); i < uint64(len(boundaryKeys)) {
				return boundaryKeys[i]
			}
			return src.Uint64()
		}
		for mode := range 16 {
			desc, k, carried, record := mode&1 != 0, 1+mode>>1&1, mode&4 != 0, mode&8 != 0
			planes := make([][]uint64, 3)
			for p := range planes {
				if p < k || p == 2 && carried {
					planes[p] = make([]uint64, size)
					for i := range planes[p] {
						planes[p][i] = word()
					}
				}
			}
			var rec []uint64
			if record {
				rec = make([]uint64, words)
				for i := range rec {
					rec[i] = src.Uint64()
				}
			}
			vec := [][]uint64{slices.Clone(planes[0]), slices.Clone(planes[1]), slices.Clone(planes[2]), slices.Clone(rec)}
			planeRun(planes[0], planes[1], planes[2], lo, stride, u0, u1, period, descMask(!desc), rec, bit)
			planeRunVector(vec[0], vec[1], vec[2], lo, stride, u0, u1, period, descMask(!desc), vec[3], bit)
			for p, want := range append(planes, rec) {
				if !slices.Equal(vec[p], want) {
					t.Fatalf("mode %d (desc=%v k=%d carried=%v record=%v), lo=%d stride=%d u=[%d,%d) period=%d q=%d: plane %d differs\n vector   %x\n portable %x",
						mode, desc, k, carried, record, lo, stride, u0, u1, period, bit, p, vec[p], want)
				}
			}
			if !record {
				continue
			}
			want := make([]uint64, size)
			for i := range want {
				want[i] = src.Uint64()
			}
			got := slices.Clone(want)
			replayRun(want, lo, stride, u0, u1, rec, bit)
			replayRunVector(got, lo, stride, u0, u1, rec, bit)
			if !slices.Equal(got, want) {
				t.Fatalf("mode %d, lo=%d stride=%d u=[%d,%d) q=%d: replay differs\n vector   %x\n portable %x", mode, lo, stride, u0, u1, bit, got, want)
			}
		}
	})
}
