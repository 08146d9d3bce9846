//go:build amd64 && !purego

package bitvec

import (
	"fmt"
	"testing"
)

// BenchmarkKernelCrossover measures the raw assembly entry points
// against the Go loops across operand sizes; kernelMinWords and the
// ungated k-way rule (archAndCountAll) in dispatch_amd64.go are set
// from this table. Run with
//
//	go test ./internal/bitvec/ -run '^$' -bench KernelCrossover
func BenchmarkKernelCrossover(b *testing.B) {
	if !hwAVX2 {
		b.Skip("CPU lacks AVX2")
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 157, 512, 1563} {
		a := make([]uint64, n)
		bb := make([]uint64, n)
		c := make([]uint64, n)
		d := make([]uint64, n)
		dst := make([]uint64, n)
		for i := range a {
			a[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
			bb[i] = 0xd1342543de82ef95 * uint64(i+3)
			c[i] = 0xbf58476d1ce4e5b9 * uint64(i+5)
			d[i] = 0x94d049bb133111eb * uint64(i+7)
		}
		b.Run(fmt.Sprintf("andcount_go_w%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = andCountWordsGo(a, bb)
			}
		})
		b.Run(fmt.Sprintf("andcount_avx2_w%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = andCountWordsAVX2(&a[0], &bb[0], n)
			}
		})
		b.Run(fmt.Sprintf("andinto_go_w%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = andIntoGo(dst, a, bb)
			}
		})
		b.Run(fmt.Sprintf("andinto_avx2_w%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = andIntoAVX2(&dst[0], &a[0], &bb[0], n)
			}
		})
		b.Run(fmt.Sprintf("andnotcount_go_w%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = andNotCountWordsGo(a, bb)
			}
		})
		b.Run(fmt.Sprintf("andnotcount_avx2_w%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = andNotCountWordsAVX2(&a[0], &bb[0], n)
			}
		})
		for _, cols := range [][][]uint64{{a, bb, c}, {a, bb, c, d}} {
			b.Run(fmt.Sprintf("andcountall_k%d_go_w%d", len(cols), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkInt = andCountAllGo(cols)
				}
			})
			b.Run(fmt.Sprintf("andcountall_k%d_avx2_w%d", len(cols), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkInt = andCountAllAVX2(cols)
				}
			})
		}
	}
}

var sinkInt int
