package cubism

// Ablation benchmarks for the design choices DESIGN.md calls out: block
// size (the paper's outlook asks about "optimal block sizes for future
// systems"), space-filling-curve choice for the block ordering, the
// lossless encoder back-end, and the low-storage versus three-register
// Runge-Kutta formulation.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"encoding/binary"

	"cubism/internal/compress"
	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/node"
	"cubism/internal/physics"
	"cubism/internal/sfc"
	"cubism/internal/wavelet"
)

// BenchmarkAblationBlockSize sweeps the block edge at fixed total cell
// count: smaller blocks raise the ghost overhead ((N+6)³/N³), larger
// blocks stress the per-worker cache footprint.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		nb := 32 / n // fixed 32³ cells
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			g := benchGrid(n, nb)
			e := node.New(g, grid.PeriodicBC(), runtime.NumCPU(), false)
			outs := make([][]float32, len(g.Blocks))
			for i := range outs {
				outs[i] = make([]float32, n*n*n*physics.NQ)
			}
			cells := int64(g.Cells())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ComputeRHS(g.Blocks, outs)
			}
			b.StopTimer()
			setFlops(b, cells*core.RHSFlopsPerCell(n))
			b.ReportMetric(core.OperationalIntensityRHS(n), "FLOP/B")
		})
	}
}

// BenchmarkAblationCurve compares block orderings on the node-layer RHS:
// Hilbert (production), Morton and row-major.
func BenchmarkAblationCurve(b *testing.B) {
	const n, nb = 8, 4
	curves := map[string]sfc.Curve{
		"hilbert":  sfc.Hilbert{Bits: 2},
		"morton":   sfc.Morton{Bits: 2},
		"rowmajor": sfc.RowMajor{NX: nb, NY: nb, NZ: nb},
	}
	for _, name := range []string{"hilbert", "morton", "rowmajor"} {
		b.Run(name, func(b *testing.B) {
			g := grid.NewPartial(grid.Desc{N: n, NBX: nb, NBY: nb, NBZ: nb, H: 1.0 / float64(n*nb)},
				sfc.Enumerate(curves[name], nb, nb, nb))
			fillBench(g, benchField)
			e := node.New(g, grid.PeriodicBC(), runtime.NumCPU(), false)
			outs := make([][]float32, len(g.Blocks))
			for i := range outs {
				outs[i] = make([]float32, n*n*n*physics.NQ)
			}
			cells := int64(g.Cells())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ComputeRHS(g.Blocks, outs)
			}
			b.StopTimer()
			setFlops(b, cells*core.RHSFlopsPerCell(n))
		})
	}
}

// BenchmarkAblationEncoder compares the lossless back-ends on the same
// decimated payload: zlib (paper's choice), run-length, significance-map.
func BenchmarkAblationEncoder(b *testing.B) {
	g := benchGrid(benchN, 2)
	for _, enc := range []string{"zlib", "rle", "sig"} {
		b.Run(enc, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				_, st, err := compress.Compress(g, compress.Pressure, compress.Options{
					Epsilon: 1e-2, Encoder: enc, Workers: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				rate = st.Rate()
			}
			b.ReportMetric(rate, "rate:1")
		})
	}
}

// BenchmarkAblationTimeStepper compares the 2N low-storage Runge-Kutta
// (paper §5: "low-storage time stepping schemes, to reduce the overall
// memory footprint") against the classic three-register SSP-RK3.
func BenchmarkAblationTimeStepper(b *testing.B) {
	for _, scheme := range []string{"lsrk3", "ssprk3"} {
		b.Run(scheme, func(b *testing.B) {
			values := benchN * benchN * benchN * physics.NQ
			u := make([]float32, values)
			reg := make([]float32, values)
			u0 := make([]float32, values)
			rhs := make([]float32, values)
			for i := range u {
				u[i] = float32(i%13) + 1
				rhs[i] = float32(i%7) - 3
			}
			b.SetBytes(int64(values) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if scheme == "lsrk3" {
					for s := 0; s < 3; s++ {
						core.UpdateScalar(u, reg, rhs, core.RK3A[s], core.RK3B[s], 1e-6)
					}
				} else {
					copy(u0, u)
					for s := 0; s < 3; s++ {
						core.UpdateSSP(u, u0, rhs, s, 1e-6)
					}
				}
			}
		})
	}
}

// BenchmarkAblationZerotree compares the embedded zerotree coder (paper
// ref. [72]) against the decimate+zlib pipeline on the same transformed
// pressure block.
func BenchmarkAblationZerotree(b *testing.B) {
	g := benchGrid(benchN, 1)
	field := make([]float32, benchN*benchN*benchN)
	compress.Pressure.Extract(g.Blocks[0], field)
	var scale float64
	for _, v := range field {
		if a := math.Abs(float64(v)); a > scale {
			scale = a
		}
	}
	tr := wavelet.NewFWT3(benchN)
	tr.Forward(field)
	threshold := 1e-3 * scale
	b.Run("zerotree", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			stream := compress.ZerotreeEncode(append([]float32(nil), field...), benchN, threshold)
			size = len(stream)
		}
		b.ReportMetric(float64(benchN*benchN*benchN*4)/float64(size), "rate:1")
	})
	b.Run("decimate-zlib", func(b *testing.B) {
		enc, _ := compress.NewEncoder("zlib")
		var size int
		for i := 0; i < b.N; i++ {
			work := append([]float32(nil), field...)
			for j, v := range work {
				if math.Abs(float64(v)) <= threshold {
					work[j] = 0
				}
			}
			raw := make([]byte, 0, len(work)*4)
			var w [4]byte
			for _, v := range work {
				binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
				raw = append(raw, w[:]...)
			}
			out, err := enc.Encode(nil, raw)
			if err != nil {
				b.Fatal(err)
			}
			size = len(out)
		}
		b.ReportMetric(float64(benchN*benchN*benchN*4)/float64(size), "rate:1")
	})
}
