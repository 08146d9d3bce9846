// Package bitvec provides packed bit vectors, bit matrices, word-slice
// kernels, and bit-granular I/O streams.
//
// The sketching framework measures sketch sizes in bits, exactly as the
// paper does (Definition 5 measures |S| in bits). Every sketch in this
// repository serializes itself through a bitvec.Writer so that reported
// sizes are the length of a real encoding rather than an in-memory
// estimate. Databases store their rows in contiguous packed-word
// arenas, which makes itemset containment tests (the inner loop of
// every frequency query) word-parallel.
//
// Two tiers of API are provided. Vector is the safe, bounds-checked
// bit-vector type used throughout the lower-bound and coding machinery.
// The word-slice kernels in words.go (CountWords, AndCountWords,
// AndNotCountWords, AndInto, AndNotInto, their capped forms,
// AndCountAll, ContainsAllWords) are the zero-allocation hot path used
// by the dataset query engine and the miners: fused single-pass loops
// over raw []uint64 storage, with Wrap bridging the two
// representations as a no-copy view. The 2-operand kernels and the
// k-way AndCountAll run AVX2 assembly on capable amd64 hardware
// (words_amd64.s) and the Go loops everywhere else.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int {
	return (n + wordBits - 1) / wordBits
}

// Vector is a fixed-length packed bit vector. The zero value is an empty
// vector of length 0; use New to create a vector of a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector of length n. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, wordsFor(n))}
}

// FromBools builds a vector whose ith bit is 1 iff b[i] is true.
func FromBools(b []bool) *Vector {
	v := New(len(b))
	for i, x := range b {
		if x {
			v.Set(i)
		}
	}
	return v
}

// FromIndices builds a vector of length n with 1s exactly at the given
// indices. It panics if any index is out of range.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len returns the length of the vector in bits.
func (v *Vector) Len() int { return v.n }

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to 1. It panics if i is out of range.
func (v *Vector) Set(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (v *Vector) Clear(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetBool sets bit i to b.
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Flip inverts bit i.
func (v *Vector) Flip(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Count returns the number of set bits. It runs on the dispatched
// kernel layer (words.go), so large vectors take the SIMD path.
func (v *Vector) Count() int {
	return CountWords(v.words)
}

// ContainsAll reports whether every bit set in t is also set in v,
// i.e. t ⊆ v viewed as sets. Vectors of different lengths compare by
// their common prefix words; t must not be longer than v.
func (v *Vector) ContainsAll(t *Vector) bool {
	if t.n > v.n {
		panic("bitvec: ContainsAll argument longer than receiver")
	}
	for i, w := range t.words {
		if w&^v.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether v and t share at least one set bit.
func (v *Vector) Intersects(t *Vector) bool {
	m := len(v.words)
	if len(t.words) < m {
		m = len(t.words)
	}
	for i := 0; i < m; i++ {
		if v.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// And sets v = v AND t. The vectors must have the same length.
func (v *Vector) And(t *Vector) {
	v.sameLen(t)
	for i := range v.words {
		v.words[i] &= t.words[i]
	}
}

// Or sets v = v OR t. The vectors must have the same length.
func (v *Vector) Or(t *Vector) {
	v.sameLen(t)
	for i := range v.words {
		v.words[i] |= t.words[i]
	}
}

// Xor sets v = v XOR t. The vectors must have the same length.
func (v *Vector) Xor(t *Vector) {
	v.sameLen(t)
	for i := range v.words {
		v.words[i] ^= t.words[i]
	}
}

// AndNot sets v = v AND NOT t. The vectors must have the same length.
func (v *Vector) AndNot(t *Vector) {
	v.sameLen(t)
	for i := range v.words {
		v.words[i] &^= t.words[i]
	}
}

// AndCount returns the popcount of v AND t without allocating.
// The vectors must have the same length. Like Count it runs on the
// dispatched kernel layer.
func (v *Vector) AndCount(t *Vector) int {
	v.sameLen(t)
	return AndCountWords(v.words, t.words)
}

func (v *Vector) sameLen(t *Vector) {
	if v.n != t.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, t.n))
	}
}

// Equal reports whether v and t have the same length and bits.
func (v *Vector) Equal(t *Vector) bool {
	if v.n != t.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// HammingDistance returns the number of positions where v and t differ.
// The vectors must have the same length.
func (v *Vector) HammingDistance(t *Vector) int {
	v.sameLen(t)
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(v.words[i] ^ t.words[i])
	}
	return c
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// Ones returns the indices of all set bits in increasing order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// NextOne returns the index of the first set bit at position >= from,
// or -1 if there is none.
func (v *Vector) NextOne(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	wi := from / wordBits
	w := v.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// String renders the vector as a 0/1 string, index 0 first.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Words exposes the backing words (read-only by convention). The final
// word's bits beyond Len are always zero.
func (v *Vector) Words() []uint64 { return v.words }

// AppendTo writes the vector's bits to w, in index order.
func (v *Vector) AppendTo(w BitWriter) {
	for i := 0; i < v.n; i++ {
		w.WriteBit(v.Get(i))
	}
}

// ReadVector reads an n-bit vector from r.
func ReadVector(r BitReader, n int) (*Vector, error) {
	v := New(n)
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if b {
			v.Set(i)
		}
	}
	return v, nil
}
