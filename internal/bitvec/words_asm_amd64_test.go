//go:build amd64 && !purego

package bitvec

import "testing"

// Direct asm-vs-Go differential coverage. The dispatched public
// kernels only reach the assembly at or above kernelMinWords, so this
// file calls the assembly entry points directly for every length
// 1..256 (every scalar-tail residue mod 16 at several trip counts)
// plus large operands, over the same pattern matrix and unaligned
// carving as the portable suite. Skipped on hardware without AVX2.

func requireAVX2(t *testing.T) {
	t.Helper()
	if !hwAVX2 {
		t.Skip("CPU lacks AVX2; assembly kernels not selectable")
	}
}

func asmTestLengths() []int {
	ls := make([]int, 0, 300)
	for n := 1; n <= 256; n++ {
		ls = append(ls, n)
	}
	ls = append(ls, 1000, 1563, 4099)
	return ls
}

func TestAsmKernelsMatchGo(t *testing.T) {
	requireAVX2(t)
	for _, n := range asmTestLengths() {
		forEachOperandPair(t, n, func(name string, a, b []uint64) {
			if got, want := countWordsAVX2(&a[0], n), countWordsGo(a); got != want {
				t.Fatalf("countWordsAVX2 n=%d %s: got %d want %d", n, name, got, want)
			}
			if got, want := andCountWordsAVX2(&a[0], &b[0], n), andCountWordsGo(a, b); got != want {
				t.Fatalf("andCountWordsAVX2 n=%d %s: got %d want %d", n, name, got, want)
			}
			if got, want := andNotCountWordsAVX2(&a[0], &b[0], n), andNotCountWordsGo(a, b); got != want {
				t.Fatalf("andNotCountWordsAVX2 n=%d %s: got %d want %d", n, name, got, want)
			}

			dstA := make([]uint64, n)
			dstG := make([]uint64, n)
			ca := andIntoAVX2(&dstA[0], &a[0], &b[0], n)
			cg := andIntoGo(dstG, a, b)
			if ca != cg {
				t.Fatalf("andIntoAVX2 n=%d %s: count %d want %d", n, name, ca, cg)
			}
			for i := range dstA {
				if dstA[i] != dstG[i] {
					t.Fatalf("andIntoAVX2 n=%d %s: dst[%d] = %#x want %#x", n, name, i, dstA[i], dstG[i])
				}
			}
			ca = andNotIntoAVX2(&dstA[0], &a[0], &b[0], n)
			cg = andNotIntoGo(dstG, a, b)
			if ca != cg {
				t.Fatalf("andNotIntoAVX2 n=%d %s: count %d want %d", n, name, ca, cg)
			}
			for i := range dstA {
				if dstA[i] != dstG[i] {
					t.Fatalf("andNotIntoAVX2 n=%d %s: dst[%d] = %#x want %#x", n, name, i, dstA[i], dstG[i])
				}
			}
		})
	}
}

// TestAsmAndCountAllMatchesGo pins the k-way assembly directly to the
// Go loop it replaces, for k = 2..8 (the public wrapper never sends it
// k = 2) over the k-column operand sets.
func TestAsmAndCountAllMatchesGo(t *testing.T) {
	requireAVX2(t)
	pats := kernelPatterns()
	for _, n := range asmTestLengths() {
		for k := 2; k <= 8; k++ {
			forEachColumnSet(pats, n, k, func(name string, cols [][]uint64) {
				if got, want := andCountAllAVX2(cols), andCountAllGo(cols); got != want {
					t.Fatalf("andCountAllAVX2 n=%d k=%d %s: got %d want %d", n, k, name, got, want)
				}
			})
		}
	}
}

// TestAsmKernelsAliased drives the Into assembly with dst aliasing an
// operand exactly, against the Go kernels on copies.
func TestAsmKernelsAliased(t *testing.T) {
	requireAVX2(t)
	for _, n := range []int{1, 3, 4, 15, 16, 17, 63, 64, 157, 1563} {
		forEachOperandPair(t, n, func(name string, a, b []uint64) {
			aOrig := append([]uint64(nil), a...)
			bOrig := append([]uint64(nil), b...)
			ref := make([]uint64, n)

			cg := andIntoGo(ref, aOrig, bOrig)
			if ca := andIntoAVX2(&a[0], &a[0], &b[0], n); ca != cg {
				t.Fatalf("andIntoAVX2 dst=a n=%d %s: count %d want %d", n, name, ca, cg)
			}
			for i := range a {
				if a[i] != ref[i] {
					t.Fatalf("andIntoAVX2 dst=a n=%d %s: word %d mismatch", n, name, i)
				}
			}
			copy(a, aOrig)

			cg = andNotIntoGo(ref, aOrig, bOrig)
			if ca := andNotIntoAVX2(&b[0], &a[0], &b[0], n); ca != cg {
				t.Fatalf("andNotIntoAVX2 dst=b n=%d %s: count %d want %d", n, name, ca, cg)
			}
			for i := range b {
				if b[i] != ref[i] {
					t.Fatalf("andNotIntoAVX2 dst=b n=%d %s: word %d mismatch", n, name, i)
				}
			}
			copy(b, bOrig)
		})
	}
}

// TestDispatchCrossover pins the dispatch rule itself: below
// kernelMinWords the public kernels must agree with the Go loops (they
// ARE the Go loops), and at/above it with the assembly — both already
// covered bit-for-bit elsewhere; here we assert the feature string and
// that toggling SetPureGo actually changes the selected path's
// observable state.
func TestDispatchCrossover(t *testing.T) {
	requireAVX2(t)
	if !kernelAVX2 {
		t.Fatal("AVX2 hardware present but kernels not enabled at init")
	}
	if KernelFeatures() != "avx2=true" {
		t.Fatalf("KernelFeatures = %q, want avx2=true", KernelFeatures())
	}
	wasPure := SetPureGo(true)
	if wasPure {
		t.Fatal("SetPureGo(true) reported pure-Go already active with AVX2 live")
	}
	if kernelAVX2 || KernelFeatures() != "avx2=false" {
		t.Fatal("SetPureGo(true) did not disable the assembly path")
	}
	SetPureGo(false)
	if !kernelAVX2 || KernelFeatures() != "avx2=true" {
		t.Fatal("SetPureGo(false) did not restore the assembly path")
	}
}
