package core

import (
	"fmt"
	"runtime"
	"testing"

	"cubism/internal/qpx"
)

func BenchmarkWenoScalarX4(b *testing.B) {
	vals := [8]float64{1.2, 0.9, 1.1, 1.4, 1.0, 1.3, 0.8, 1.05}
	var s float64
	for i := 0; i < b.N; i++ {
		for l := 0; l < 4; l++ {
			s += wenoMinus(vals[l], vals[l+1], vals[l+2], vals[l+3], vals[l+4])
		}
	}
	runtime.KeepAlive(s)
}

func BenchmarkWenoVec(b *testing.B) {
	var a [6]qpx.Vec4
	for i := range a {
		a[i] = qpx.Splat(1.0 + 0.1*float64(i))
	}
	var s qpx.Vec4
	for i := 0; i < b.N; i++ {
		s = s.Add(wenoMinusV(a[0], a[1], a[2], a[3], a[4]))
	}
	runtime.KeepAlive(s)
}

func BenchmarkFMA4(b *testing.B) {
	x := qpx.Splat(1.0000001)
	y := qpx.Splat(0.9999999)
	acc := qpx.Splat(0)
	for i := 0; i < b.N; i++ {
		acc = x.MAdd(y, acc)
	}
	runtime.KeepAlive(acc)
}

// BenchmarkRHSRows: one row-driver RHS evaluation (Compute) of the rough
// two-phase field, at block edge 8 and at the paper's 32, under the Go
// dispatch and, where the CPU has it, the AVX2 one. It reports the grind
// time in ns per cell.
func BenchmarkRHSRows(b *testing.B) {
	for _, avx2 := range dispatches() {
		for _, n := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", dispatchName(avx2), n), func(b *testing.B) {
				lab, h := roughLab(n, 1)
				r := rhsWith(n, avx2)
				out := make([]float32, n*n*n*nq)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Compute(lab, h, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n*n), "ns/cell")
			})
		}
	}
}
