package bitvec

import "math/bits"

// Word-slice kernels: the zero-allocation building blocks of the
// dataset query engine. The dataset package stores databases as one
// contiguous row-major []uint64 arena and column indexes as one
// contiguous column-major arena; these functions operate directly on
// word slices carved out of those arenas so that the hot query paths
// (exact frequency counts, Eclat intersections, sketch estimates)
// never materialize intermediate Vectors.
//
// All kernels treat their inputs as equal-length packed bit strings;
// bits past the logical length must be zero (Vector and the dataset
// arena both maintain that invariant). Kernels are written as single
// fused passes — one load per word, popcount in the same loop — so a
// k-way intersection count touches each cache line exactly once
// instead of once per And plus once per Count.
//
// The k-ary kernels process batchWords (4) words per loop iteration:
// hoisting four words of the accumulator per trip amortizes the inner
// column loop's setup and keeps four independent AND/popcount chains
// in flight, which is the portable (no build-tagged assembly)
// equivalent of a SIMD-width inner loop. A scalar tail handles the
// last len%4 words.
//
// Kernel layer. The five 2-operand kernels (CountWords,
// AndCountWords, AndNotCountWords, AndInto, AndNotInto) and the k-way
// count AndCountAll (k >= 3) dispatch at runtime between the portable
// Go loops in this file and hand-written AVX2 assembly
// (words_amd64.s): package init probes the CPU via CPUID/XGETBV
// (cpu_amd64.go) and enables the vector kernels only on amd64 with
// AVX2 and OS-saved YMM state. A 2-operand call takes the assembly
// only at or above kernelMinWords operand words — below the crossover
// the call/VZEROUPPER overhead beats the vector win and the Go loop is
// used; the k-way kernel shares that fixed cost across k columns and
// has no crossover. `-tags purego` (any arch) and non-amd64 builds
// compile only the Go loops. See dispatch_amd64.go / dispatch_purego.go
// and the README "Kernel layer" section.
//
// The Go forms of the 2-operand kernels stay as plain range loops on
// purpose: measured on the reference hardware (Xeon 2.1GHz, go1.24),
// an indexed 4-way *Go-level* unroll of those loops is 20–35% *slower*
// than the compiler's range-loop codegen at both L1-resident
// (157-word) and L2 (1563-word) operand sizes — the compiler already
// eliminates bounds checks in the range form and the core's
// out-of-order window extracts the ILP without help. That negative
// result is scoped to Go-level unrolls: real SIMD (one VPAND +
// nibble-LUT popcount per 32-byte vector) removes per-word work
// instead of merely rearranging it, and measures well ahead of the
// range loop above the crossover. Go-level batching still pays where
// it removes per-word work or per-word branches: the multi-word
// containment test, and the k-ary inner loop of andCountAllGo, which
// runs only on the portable path (purego and non-amd64 builds, or
// amd64 without AVX2).

// batchWords is the kernel unroll factor: four 64-bit lanes per
// iteration, the widest batch that keeps every accumulator chain in
// registers on amd64 and arm64 without spilling.
const batchWords = 4

// CountWords returns the number of set bits in w.
func CountWords(w []uint64) int {
	return archCountWords(w)
}

func countWordsGo(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// AndCountWords returns popcount(a AND b) in a single fused pass.
// The slices must have the same length.
func AndCountWords(a, b []uint64) int {
	if len(a) != len(b) {
		panic("bitvec: AndCountWords length mismatch")
	}
	return archAndCountWords(a, b)
}

func andCountWordsGo(a, b []uint64) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return c
}

// ContainsAllWords reports whether every bit set in t is also set in
// row (t ⊆ row). t must not be longer than row; extra row words are
// ignored, matching Vector.ContainsAll.
func ContainsAllWords(row, t []uint64) bool {
	if len(t) > len(row) {
		panic("bitvec: ContainsAllWords pattern longer than row")
	}
	i := 0
	for ; i+batchWords <= len(t); i += batchWords {
		if (t[i]&^row[i])|(t[i+1]&^row[i+1])|
			(t[i+2]&^row[i+2])|(t[i+3]&^row[i+3]) != 0 {
			return false
		}
	}
	for ; i < len(t); i++ {
		if t[i]&^row[i] != 0 {
			return false
		}
	}
	return true
}

// AndInto sets dst = a AND b and returns popcount(dst), fused into one
// pass. dst may alias a and/or b exactly (the common in-place
// accumulator pattern is AndInto(acc, acc, col)); partially
// overlapping slices are not supported. All three slices must have the
// same length.
func AndInto(dst, a, b []uint64) int {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("bitvec: AndInto length mismatch")
	}
	return archAndInto(dst, a, b)
}

func andIntoGo(dst, a, b []uint64) int {
	c := 0
	for i := range dst {
		w := a[i] & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// AndNotCountWords returns popcount(a AND NOT b) in a single fused
// pass. The slices must have the same length. With b a tidset and a its
// parent's tidset this is the size of the dEclat diffset without
// materializing it.
func AndNotCountWords(a, b []uint64) int {
	if len(a) != len(b) {
		panic("bitvec: AndNotCountWords length mismatch")
	}
	return archAndNotCountWords(a, b)
}

func andNotCountWordsGo(a, b []uint64) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x &^ b[i])
	}
	return c
}

// AndNotInto sets dst = a AND NOT b and returns popcount(dst), fused
// into one pass — the diffset construction kernel of the dEclat miner
// (t(P)∖t(P∪{a}), or d(PY)∖d(PX) between sibling diffsets). dst may
// alias a and/or b exactly; partially overlapping slices are not
// supported. All three slices must have the same length.
func AndNotInto(dst, a, b []uint64) int {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("bitvec: AndNotInto length mismatch")
	}
	return archAndNotInto(dst, a, b)
}

func andNotIntoGo(dst, a, b []uint64) int {
	c := 0
	for i := range dst {
		w := a[i] &^ b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// cappedBlockWords is the budget-check granularity of the capped
// kernels: 32 words (2 KiB, four cache lines) per check keeps the
// branch out of the inner loop while stopping a doomed candidate
// within one block of proving it. The block body runs through the
// dispatched 2-operand kernels, so on AVX2 hardware each block is one
// assembly call (32 words sits above kernelMinWords); re-measured
// against the assembly kernels, 32 still beats 64 on the dense mining
// workload — the wider block halves the call overhead but pays a full
// extra 2 KiB of scan on every pruned candidate, and pruning is the
// common case there.
const cappedBlockWords = 32

// AndNotIntoCapped sets dst = a AND NOT b like AndNotInto, but gives
// up as soon as the running popcount exceeds budget, re-checking every
// cappedBlockWords words. It returns the count so far and whether the
// full pass completed; after an early exit dst's remaining words are
// unspecified. This is the dEclat pruning kernel: a diffset larger
// than sup(parent) − minCount belongs to an infrequent candidate, so
// on dense databases most failing candidates abort after a fraction of
// the scan that the plain kernel would always pay in full.
func AndNotIntoCapped(dst, a, b []uint64, budget int) (int, bool) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("bitvec: AndNotIntoCapped length mismatch")
	}
	c := 0
	for lo := 0; lo < len(dst); {
		hi := lo + cappedBlockWords
		if hi > len(dst) {
			hi = len(dst)
		}
		c += archAndNotInto(dst[lo:hi], a[lo:hi], b[lo:hi])
		if c > budget {
			return c, false
		}
		lo = hi
	}
	return c, true
}

// AndIntoCapped is AndNotIntoCapped for dst = a AND b — the diffset of
// a tidset parent against a diffset sibling, or (with budget an upper
// bound that cannot be exceeded, e.g. popcount(a) when dst
// accumulates an intersection) an exact fused AND+popcount that shares
// the capped block loop.
func AndIntoCapped(dst, a, b []uint64, budget int) (int, bool) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("bitvec: AndIntoCapped length mismatch")
	}
	c := 0
	for lo := 0; lo < len(dst); {
		hi := lo + cappedBlockWords
		if hi > len(dst) {
			hi = len(dst)
		}
		c += archAndInto(dst[lo:hi], a[lo:hi], b[lo:hi])
		if c > budget {
			return c, false
		}
		lo = hi
	}
	return c, true
}

// NotInto sets dst = NOT a over the first n bits — bits at positions
// ≥ n in the final word are zeroed, maintaining the packed-string
// invariant — and returns popcount(dst). len(dst) and len(a) must both
// equal wordsFor(n). It builds root-level diffsets: the complement of a
// dense attribute column is the rows *not* containing the attribute.
func NotInto(dst, a []uint64, n int) int {
	nw := wordsFor(n)
	if len(dst) != nw || len(a) != nw {
		panic("bitvec: NotInto word count mismatch")
	}
	c := 0
	for i := range dst {
		w := ^a[i]
		if i == nw-1 && n%wordBits != 0 {
			w &= (uint64(1) << (uint(n) % wordBits)) - 1
		}
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCountAll returns the popcount of the AND of all cols in a single
// pass, without materializing the intersection. It panics if cols is
// empty or the slices differ in length. The caller's backing array for
// cols is not retained, so a stack-allocated [k][]uint64 may be passed.
// One and two columns go to CountWords and AndCountWords; k >= 3 runs
// the dispatched k-way kernel.
func AndCountAll(cols [][]uint64) int {
	switch len(cols) {
	case 0:
		panic("bitvec: AndCountAll of no columns")
	case 1:
		return CountWords(cols[0])
	case 2:
		return AndCountWords(cols[0], cols[1])
	}
	first := cols[0]
	for _, c := range cols[1:] {
		if len(c) != len(first) {
			panic("bitvec: AndCountAll length mismatch")
		}
	}
	return archAndCountAll(cols)
}

// andCountAllGo is the portable k-way kernel for k >= 2 equal-length
// columns: four words of the running intersection per trip, each
// ANDed with every further column before one popcount.
func andCountAllGo(cols [][]uint64) int {
	first := cols[0]
	n := 0
	i := 0
	for ; i+batchWords <= len(first); i += batchWords {
		w0, w1 := first[i], first[i+1]
		w2, w3 := first[i+2], first[i+3]
		for _, c := range cols[1:] {
			w0 &= c[i]
			w1 &= c[i+1]
			w2 &= c[i+2]
			w3 &= c[i+3]
		}
		n += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(first); i++ {
		w := first[i]
		for _, c := range cols[1:] {
			w &= c[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// Wrap returns a Vector of length n that views words as its backing
// storage, without copying. Mutations through the returned Vector are
// visible in words and vice versa. len(words) must be exactly
// wordsFor(n), and bits past n must be zero (the Vector invariant).
// Wrap returns a value so that callers building view tables (for
// example, a column index) pay no per-view allocation.
func Wrap(n int, words []uint64) Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	if len(words) != wordsFor(n) {
		panic("bitvec: Wrap word count mismatch")
	}
	return Vector{n: n, words: words}
}

// WriteWords appends the first n bits of words to w in index order,
// producing the identical stream to writing each bit individually.
func WriteWords(w BitWriter, words []uint64, n int) {
	for i := 0; n > 0; i++ {
		bitsHere := n
		if bitsHere > wordBits {
			bitsHere = wordBits
		}
		w.WriteUint(words[i], bitsHere)
		n -= bitsHere
	}
}

// ReadWords reads n bits from r into words (which must hold at least
// wordsFor(n) words), in index order.
func ReadWords(r BitReader, words []uint64, n int) error {
	for i := 0; n > 0; i++ {
		bitsHere := n
		if bitsHere > wordBits {
			bitsHere = wordBits
		}
		v, err := r.ReadUint(bitsHere)
		if err != nil {
			return err
		}
		words[i] = v
		n -= bitsHere
	}
	return nil
}
