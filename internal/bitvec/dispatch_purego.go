//go:build !amd64 || purego

package bitvec

// Pure-Go kernel dispatch: every arch except amd64, and any arch under
// `-tags purego`, binds the 2-operand kernels and the k-way
// AndCountAll straight to the portable loops in words.go. This file
// and dispatch_amd64.go define the same arch* hooks; exactly one of
// them compiles into any build.

func archCountWords(w []uint64) int          { return countWordsGo(w) }
func archAndCountWords(a, b []uint64) int    { return andCountWordsGo(a, b) }
func archAndNotCountWords(a, b []uint64) int { return andNotCountWordsGo(a, b) }
func archAndInto(dst, a, b []uint64) int     { return andIntoGo(dst, a, b) }
func archAndNotInto(dst, a, b []uint64) int  { return andNotIntoGo(dst, a, b) }
func archAndCountAll(cols [][]uint64) int    { return andCountAllGo(cols) }

// KernelFeatures describes the active kernel dispatch path, e.g.
// "avx2=true" when the assembly kernels are live. Benchmarks record it
// so a perf comparison can distinguish a dispatch-path change from
// clock drift. Pure-Go builds always report avx2=false.
func KernelFeatures() string { return "avx2=false" }

// SetPureGo forces (true) or restores (false) the pure-Go kernels and
// reports whether the pure-Go path was already active. It exists so
// tests can prove both dispatch paths first-class; it is not
// synchronized and must not race with kernel calls. On this build the
// pure-Go path is the only path and the call is a no-op.
func SetPureGo(pure bool) bool { return true }
