//go:build amd64 && !purego

package bitvec

// amd64 kernel dispatch: one-time CPUID feature detection at package
// init selects between the AVX2 assembly kernels (words_amd64.s) and
// the portable Go loops. The assembly is taken only when it is live
// (AVX2 present, YMM state OS-enabled, not forced off by SetPureGo).
// The 2-operand kernels also need at least kernelMinWords operand
// words — below the crossover the fixed call + VZEROUPPER overhead
// outweighs the vector win and the Go range loop is faster. The k-way
// AndCountAll kernel has no such crossover (archAndCountAll).

// kernelMinWords is the measured 2-operand asm-vs-Go crossover on the
// reference hardware (Xeon 2.1GHz; see BenchmarkKernelCrossover in
// dispatch_bench_test.go): at 4 words the two are at parity (call +
// VZEROUPPER overhead eats the vector win), at 8 words the assembly
// is 1.2–2.2x ahead depending on kernel, 2–2.7x at 16, and 3–4.5x at
// the L1/L2 operand sizes (157/1563 words). 8 keeps the capped
// kernels' 32-word blocks and every dataset column of ≥512 rows on
// the vector path.
const kernelMinWords = 8

// hwAVX2 is the immutable hardware capability; kernelAVX2 is the live
// dispatch switch (equal to hwAVX2 unless a test forces the pure-Go
// path via SetPureGo).
var hwAVX2 = detectAVX2()
var kernelAVX2 = hwAVX2

func archCountWords(w []uint64) int {
	if kernelAVX2 && len(w) >= kernelMinWords {
		return countWordsAVX2(&w[0], len(w))
	}
	return countWordsGo(w)
}

func archAndCountWords(a, b []uint64) int {
	if kernelAVX2 && len(a) >= kernelMinWords {
		return andCountWordsAVX2(&a[0], &b[0], len(a))
	}
	return andCountWordsGo(a, b)
}

func archAndNotCountWords(a, b []uint64) int {
	if kernelAVX2 && len(a) >= kernelMinWords {
		return andNotCountWordsAVX2(&a[0], &b[0], len(a))
	}
	return andNotCountWordsGo(a, b)
}

func archAndInto(dst, a, b []uint64) int {
	if kernelAVX2 && len(dst) >= kernelMinWords {
		return andIntoAVX2(&dst[0], &a[0], &b[0], len(dst))
	}
	return andIntoGo(dst, a, b)
}

func archAndNotInto(dst, a, b []uint64) int {
	if kernelAVX2 && len(dst) >= kernelMinWords {
		return andNotIntoAVX2(&dst[0], &a[0], &b[0], len(dst))
	}
	return andNotIntoGo(dst, a, b)
}

// archAndCountAll takes the k-way assembly whenever it is live, at any
// column length: BenchmarkKernelCrossover shows no crossover for it.
// Its fixed call cost is shared by k >= 3 columns (the public wrapper
// routes k <= 2 to the 2-operand kernels), so at k = 3 it already
// matches the Go loop at 1 word and is 1.5–1.7x ahead at 2–4 words,
// where the 2-operand kernels still lose to theirs.
func archAndCountAll(cols [][]uint64) int {
	if kernelAVX2 {
		return andCountAllAVX2(cols)
	}
	return andCountAllGo(cols)
}

// KernelFeatures describes the active kernel dispatch path, e.g.
// "avx2=true" when the assembly kernels are live. Benchmarks record it
// so a perf comparison can distinguish a dispatch-path change from
// clock drift.
func KernelFeatures() string {
	if kernelAVX2 {
		return "avx2=true"
	}
	return "avx2=false"
}

// SetPureGo forces (true) or restores (false) the pure-Go kernels and
// reports whether the pure-Go path was already active. Restoring
// re-enables the assembly only if the hardware supports it. It exists
// so tests can prove both dispatch paths first-class; it is not
// synchronized and must not race with kernel calls.
func SetPureGo(pure bool) bool {
	prev := !kernelAVX2
	kernelAVX2 = !pure && hwAVX2
	return prev
}

// 2-operand assembly kernels (words_amd64.s). Each takes base
// pointers and a word count, handles any count including zero-length
// vector bodies and scalar tails internally, and returns the popcount
// of the result.
// The Into kernels store dst = a OP b; dst may equal a and/or b but
// must not partially overlap them.

//go:noescape
func countWordsAVX2(p *uint64, n int) int

//go:noescape
func andCountWordsAVX2(a, b *uint64, n int) int

//go:noescape
func andNotCountWordsAVX2(a, b *uint64, n int) int

//go:noescape
func andIntoAVX2(dst, a, b *uint64, n int) int

//go:noescape
func andNotIntoAVX2(dst, a, b *uint64, n int) int

// andCountAllAVX2 returns popcount(cols[0] AND ... AND cols[k-1]) for
// k >= 2 columns of len(cols[0]) words each, reading the column
// pointers from the slice headers of cols.
//
//go:noescape
func andCountAllAVX2(cols [][]uint64) int
