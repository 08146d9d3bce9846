package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// Differential suite for the kernel layer: the dispatched kernels
// (assembly on capable amd64 hardware, Go loops elsewhere) must be
// bit-identical to straightforward reference loops for every
// operation, across lengths covering every tail residue of the
// 16-word vector batch, degenerate and adversarial bit patterns, and
// sub-slices carved at odd word offsets from a shared arena (8-byte
// aligned but deliberately 32-byte misaligned, like dataset arena
// views). The same tests run under `-tags purego` and in the CI race
// job, so both dispatch paths stay first-class.

// kernelTestLengths covers 0..67 densely (every residue mod 16 both
// below and above one full 4-vector trip), the documented L1/L2
// benchmark operand sizes, and larger multi-KiB operands.
func kernelTestLengths() []int {
	ls := make([]int, 0, 80)
	for n := 0; n <= 67; n++ {
		ls = append(ls, n)
	}
	ls = append(ls, 96, 127, 128, 157, 255, 256, 1000, 1563, 4096)
	return ls
}

// kernelPatterns returns named word generators: f(i) is word i.
func kernelPatterns() map[string]func(i int) uint64 {
	rnd := rand.New(rand.NewSource(0xbadc0de))
	randWords := make([]uint64, 8192)
	for i := range randWords {
		randWords[i] = rnd.Uint64()
	}
	return map[string]func(i int) uint64{
		"zeros":     func(i int) uint64 { return 0 },
		"ones":      func(i int) uint64 { return ^uint64(0) },
		"random":    func(i int) uint64 { return randWords[i%len(randWords)] },
		"singlebit": func(i int) uint64 { return 1 << (uint(i*7) % 64) },
		"alt":       func(i int) uint64 { return 0xaaaaaaaaaaaaaaaa >> (uint(i) % 2) },
	}
}

func refCount(a []uint64) int {
	c := 0
	for _, x := range a {
		c += bits.OnesCount64(x)
	}
	return c
}

func refAndCount(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

func refAndNotCount(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] &^ b[i])
	}
	return c
}

func refAndCountAll(cols [][]uint64) int {
	c := 0
	for i, x := range cols[0] {
		for _, col := range cols[1:] {
			x &= col[i]
		}
		c += bits.OnesCount64(x)
	}
	return c
}

// fillPattern writes pat into dst with the global word index starting
// at base, so carved sub-slices see the same stream as flat slices.
func fillPattern(dst []uint64, pat func(int) uint64, base int) {
	for i := range dst {
		dst[i] = pat(base + i)
	}
}

// forEachOperandPair runs fn over pattern pairs laid out both as flat
// slices and as sub-slices carved from one arena at word offsets 1 and
// 3 (8-byte aligned, 32-byte misaligned — the layout dataset column
// windows and miner arena windows actually have).
func forEachOperandPair(t *testing.T, n int, fn func(name string, a, b []uint64)) {
	pats := kernelPatterns()
	for an, ap := range pats {
		for bn, bp := range pats {
			a := make([]uint64, n)
			b := make([]uint64, n)
			fillPattern(a, ap, 0)
			fillPattern(b, bp, 0)
			fn(an+"/"+bn+"/flat", a, b)

			arena := make([]uint64, 2*n+8)
			ua := arena[1 : 1+n : 1+n]
			ub := arena[n+3 : n+3+n : n+3+n]
			fillPattern(ua, ap, 0)
			fillPattern(ub, bp, 0)
			fn(an+"/"+bn+"/unaligned", ua, ub)
		}
	}
}

// columnBase is the pattern-stream offset between consecutive columns
// of a k-column set, so random columns are distinct and the periodic
// families are phase-shifted against each other.
const columnBase = 997

// forEachColumnSet runs fn over k-column operand sets of n words each,
// drawn from pats (kernelPatterns, built once by the caller):
//   - per family, every column from it, and columns alternating
//     between it and random;
//   - one knockout set per column position, where that column is
//     random and every other is all-ones, so a kernel that skips any
//     column (first, middle or last) miscounts;
//   - repeated columns, the same slice passed more than once.
//
// The family and knockout sets run both as flat slices and carved from
// one arena at word offsets 1, n+4, 2n+7, … (8-byte aligned, rarely
// 32-byte aligned), like dataset column windows.
func forEachColumnSet(pats map[string]func(int) uint64, n, k int, fn func(name string, cols [][]uint64)) {
	cols := make([][]uint64, k)
	emit := func(name string, gen func(j int) func(int) uint64) {
		flat := make([]uint64, k*n)
		for j := range cols {
			cols[j] = flat[j*n : (j+1)*n : (j+1)*n]
			fillPattern(cols[j], gen(j), j*columnBase)
		}
		fn(name+"/flat", cols)
		stride := n + 3
		arena := make([]uint64, k*stride+1)
		for j := range cols {
			lo := 1 + j*stride
			cols[j] = arena[lo : lo+n : lo+n]
			copy(cols[j], flat[j*n:])
		}
		fn(name+"/unaligned", cols)
	}
	for pn, pp := range pats {
		emit(pn, func(int) func(int) uint64 { return pp })
		emit(pn+"/random", func(j int) func(int) uint64 {
			if j%2 == 0 {
				return pp
			}
			return pats["random"]
		})
	}
	for pos := 0; pos < k; pos++ {
		emit(fmt.Sprintf("knockout@%d", pos), func(j int) func(int) uint64 {
			if j == pos {
				return pats["random"]
			}
			return pats["ones"]
		})
	}

	ab := make([]uint64, 2*n)
	a, b := ab[:n:n], ab[n:]
	fillPattern(a, pats["random"], 0)
	fillPattern(b, pats["random"], columnBase)
	for j := range cols {
		cols[j] = a
		if j%3 == 1 {
			cols[j] = b
		}
	}
	fn("repeat/aba", cols)
	for j := range cols {
		cols[j] = a
	}
	fn("repeat/a", cols)
}

func TestKernelDifferentialCounts(t *testing.T) {
	for _, n := range kernelTestLengths() {
		forEachOperandPair(t, n, func(name string, a, b []uint64) {
			if got, want := CountWords(a), refCount(a); got != want {
				t.Fatalf("CountWords n=%d %s: got %d want %d", n, name, got, want)
			}
			if got, want := AndCountWords(a, b), refAndCount(a, b); got != want {
				t.Fatalf("AndCountWords n=%d %s: got %d want %d", n, name, got, want)
			}
			if got, want := AndNotCountWords(a, b), refAndNotCount(a, b); got != want {
				t.Fatalf("AndNotCountWords n=%d %s: got %d want %d", n, name, got, want)
			}
		})
	}
}

func TestKernelDifferentialInto(t *testing.T) {
	for _, n := range kernelTestLengths() {
		forEachOperandPair(t, n, func(name string, a, b []uint64) {
			aOrig := append([]uint64(nil), a...)
			bOrig := append([]uint64(nil), b...)

			dst := make([]uint64, n)
			if got, want := AndInto(dst, a, b), refAndCount(aOrig, bOrig); got != want {
				t.Fatalf("AndInto n=%d %s: count %d want %d", n, name, got, want)
			}
			for i := range dst {
				if dst[i] != aOrig[i]&bOrig[i] {
					t.Fatalf("AndInto n=%d %s: dst[%d] = %#x want %#x", n, name, i, dst[i], aOrig[i]&bOrig[i])
				}
			}

			if got, want := AndNotInto(dst, a, b), refAndNotCount(aOrig, bOrig); got != want {
				t.Fatalf("AndNotInto n=%d %s: count %d want %d", n, name, got, want)
			}
			for i := range dst {
				if dst[i] != aOrig[i]&^bOrig[i] {
					t.Fatalf("AndNotInto n=%d %s: dst[%d] = %#x want %#x", n, name, i, dst[i], aOrig[i]&^bOrig[i])
				}
			}
		})
	}
}

// TestKernelDifferentialAndCountAll checks the k-way count for
// k = 3..12 at every length 0..256 plus large operands.
func TestKernelDifferentialAndCountAll(t *testing.T) {
	lengths := make([]int, 0, 260)
	for n := 0; n <= 256; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1000, 1563, 4096)
	pats := kernelPatterns()
	for _, n := range lengths {
		for k := 3; k <= 12; k++ {
			forEachColumnSet(pats, n, k, func(name string, cols [][]uint64) {
				if got, want := AndCountAll(cols), refAndCountAll(cols); got != want {
					t.Fatalf("AndCountAll n=%d k=%d %s: got %d want %d", n, k, name, got, want)
				}
			})
		}
	}
}

// TestKernelDifferentialAliased pins the documented exact-aliasing
// contract: dst == a (the accumulator pattern), dst == b, and a == b.
func TestKernelDifferentialAliased(t *testing.T) {
	for _, n := range kernelTestLengths() {
		forEachOperandPair(t, n, func(name string, a, b []uint64) {
			aOrig := append([]uint64(nil), a...)
			bOrig := append([]uint64(nil), b...)
			check := func(label string, got, want int, dst, ref []uint64) {
				t.Helper()
				if got != want {
					t.Fatalf("%s n=%d %s: count %d want %d", label, n, name, got, want)
				}
				for i := range dst {
					if dst[i] != ref[i] {
						t.Fatalf("%s n=%d %s: dst[%d] = %#x want %#x", label, n, name, i, dst[i], ref[i])
					}
				}
			}
			wantAnd := make([]uint64, n)
			for i := range wantAnd {
				wantAnd[i] = aOrig[i] & bOrig[i]
			}
			wantAndNot := make([]uint64, n)
			for i := range wantAndNot {
				wantAndNot[i] = aOrig[i] &^ bOrig[i]
			}

			copy(a, aOrig)
			check("AndInto dst=a", AndInto(a, a, b), refAndCount(aOrig, bOrig), a, wantAnd)
			copy(a, aOrig)
			copy(b, bOrig)
			check("AndInto dst=b", AndInto(b, a, b), refAndCount(aOrig, bOrig), b, wantAnd)
			copy(b, bOrig)
			check("AndInto dst=a=b", AndInto(a, a, a), refCount(aOrig), a, aOrig)

			copy(a, aOrig)
			check("AndNotInto dst=a", AndNotInto(a, a, b), refAndNotCount(aOrig, bOrig), a, wantAndNot)
			copy(a, aOrig)
			copy(b, bOrig)
			check("AndNotInto dst=b", AndNotInto(b, a, b), refAndNotCount(aOrig, bOrig), b, wantAndNot)
			copy(b, bOrig)
			zero := make([]uint64, n)
			check("AndNotInto dst=a=b", AndNotInto(a, a, a), 0, a, zero)
			copy(a, aOrig)
		})
	}
}

// TestKernelCappedDifferential checks the capped kernels (whose block
// bodies run through the dispatched kernels) against the plain kernels
// for both completing and early-exiting budgets.
func TestKernelCappedDifferential(t *testing.T) {
	for _, n := range []int{0, 1, 5, 31, 32, 33, 64, 157, 320, 1563} {
		forEachOperandPair(t, n, func(name string, a, b []uint64) {
			full := refAndCount(a, b)
			fullNot := refAndNotCount(a, b)
			for _, budget := range []int{0, 1, full - 1, full, full + 1, 1 << 30} {
				if budget < 0 {
					continue
				}
				dst := make([]uint64, n)
				cnt, ok := AndIntoCapped(dst, a, b, budget)
				if ok != (full <= budget) {
					t.Fatalf("AndIntoCapped n=%d %s budget=%d: ok=%v full=%d", n, name, budget, ok, full)
				}
				if ok && cnt != full {
					t.Fatalf("AndIntoCapped n=%d %s budget=%d: cnt=%d want %d", n, name, budget, cnt, full)
				}
				if !ok && cnt <= budget {
					t.Fatalf("AndIntoCapped n=%d %s budget=%d: early exit with cnt=%d", n, name, budget, cnt)
				}
				if ok {
					for i := range dst {
						if dst[i] != a[i]&b[i] {
							t.Fatalf("AndIntoCapped n=%d %s: dst[%d] mismatch", n, name, i)
						}
					}
				}
				cnt, ok = AndNotIntoCapped(dst, a, b, budget)
				if ok != (fullNot <= budget) || (ok && cnt != fullNot) {
					t.Fatalf("AndNotIntoCapped n=%d %s budget=%d: cnt=%d ok=%v want %d", n, name, budget, cnt, ok, fullNot)
				}
			}
		})
	}
}

// TestKernelPureGoPath forces the pure-Go dispatch path and re-runs
// the differential suite, proving the fallback is first-class on the
// same build that normally takes the assembly. On builds where the
// assembly isn't compiled in this re-checks the only path.
func TestKernelPureGoPath(t *testing.T) {
	wasPure := SetPureGo(true)
	defer SetPureGo(wasPure)
	if KernelFeatures() != "avx2=false" {
		t.Fatalf("KernelFeatures after SetPureGo(true) = %q, want avx2=false", KernelFeatures())
	}
	t.Run("counts", TestKernelDifferentialCounts)
	t.Run("into", TestKernelDifferentialInto)
	t.Run("capped", TestKernelCappedDifferential)
	t.Run("andcountall", TestKernelDifferentialAndCountAll)
}

// FuzzWordKernels cross-checks every dispatched kernel against the
// reference loops on fuzzer-chosen operands: the remaining bytes are
// packed into words and split in two for the 2-operand kernels and
// into k = 3 + data[0]%10 columns for AndCountAll; data[0] is also
// the capped kernel's budget.
func FuzzWordKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0xff, 0x00, 0xaa})
	seed := make([]byte, 1+16*16)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		words := make([]uint64, (len(data)-1+7)/8)
		for i, by := range data[1:] {
			words[i/8] |= uint64(by) << (uint(i%8) * 8)
		}
		n := len(words) / 2
		a, b := words[:n:n], words[n:2*n:2*n]
		if got, want := AndCountWords(a, b), refAndCount(a, b); got != want {
			t.Fatalf("AndCountWords: %d want %d", got, want)
		}
		if got, want := AndNotCountWords(a, b), refAndNotCount(a, b); got != want {
			t.Fatalf("AndNotCountWords: %d want %d", got, want)
		}
		if got, want := CountWords(a), refCount(a); got != want {
			t.Fatalf("CountWords: %d want %d", got, want)
		}
		dst := make([]uint64, n)
		if got, want := AndInto(dst, a, b), refAndCount(a, b); got != want {
			t.Fatalf("AndInto: %d want %d", got, want)
		}
		for i := range dst {
			if dst[i] != a[i]&b[i] {
				t.Fatalf("AndInto dst[%d] mismatch", i)
			}
		}
		if got, want := AndNotInto(dst, a, b), refAndNotCount(a, b); got != want {
			t.Fatalf("AndNotInto: %d want %d", got, want)
		}
		for i := range dst {
			if dst[i] != a[i]&^b[i] {
				t.Fatalf("AndNotInto dst[%d] mismatch", i)
			}
		}
		k := 3 + int(data[0]%10)
		m := len(words) / k
		cols := make([][]uint64, k)
		for j := range cols {
			cols[j] = words[j*m : (j+1)*m : (j+1)*m]
		}
		if got, want := AndCountAll(cols), refAndCountAll(cols); got != want {
			t.Fatalf("AndCountAll k=%d: %d want %d", k, got, want)
		}
		budget := int(data[0])
		cnt, ok := AndIntoCapped(dst, a, b, budget)
		if full := refAndCount(a, b); ok && cnt != full {
			t.Fatalf("AndIntoCapped: cnt=%d want %d", cnt, full)
		} else if !ok && (cnt <= budget || full <= budget) {
			t.Fatalf("AndIntoCapped: spurious early exit cnt=%d budget=%d full=%d", cnt, budget, full)
		}
	})
}
