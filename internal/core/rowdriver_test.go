package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"cubism/internal/grid"
	"cubism/internal/physics"
)

// roughLab loads one periodic block of edge n holding a two-phase field that
// drives every branch of the RHS: vapor bubbles inside liquid with
// half-cell-wide interfaces, noise on every primitive quantity, and a seeded
// sprinkle of cells whose pressure lies below the stiffened vacuum
// ((Γ+1)p + Π < 0), so the first-order fallback fires at faces next to them.
// The field depends only on n and seed.
func roughLab(n int, seed int64) (*grid.Lab, float64) {
	g := smallGrid(n, 1)
	rng := rand.New(rand.NewSource(seed))
	type bubble struct{ x, y, z, r float64 }
	bubbles := make([]bubble, 3)
	for i := range bubbles {
		bubbles[i] = bubble{rng.Float64(), rng.Float64(), rng.Float64(), 0.1 + 0.2*rng.Float64()}
	}
	noise := func(s float64) float64 { return 1 + s*(2*rng.Float64()-1) }
	fillGrid(g, func(x, y, z float64) physics.Prim {
		a := 0.0 // vapor fraction
		for _, b := range bubbles {
			d := math.Sqrt((x-b.x)*(x-b.x) + (y-b.y)*(y-b.y) + (z-b.z)*(z-b.z))
			a = math.Max(a, 0.5-0.5*math.Tanh(4*float64(n)*(d-b.r)))
		}
		gm, pi := physics.Mix(physics.Liquid, physics.Vapor, a)
		p := physics.Prim{
			Rho: (1000*(1-a) + a) * noise(0.05),
			U:   10 * (2*rng.Float64() - 1),
			V:   10 * (2*rng.Float64() - 1),
			W:   10 * (2*rng.Float64() - 1),
			P:   1e5 * noise(0.5),
			G:   gm,
			Pi:  pi,
		}
		if rng.Float64() < 0.02 {
			p.P = -2*pi/(gm+1) - 1e5
		}
		return p
	})
	lab := grid.NewLab(n)
	lab.Load(g, grid.PeriodicBC(), g.Blocks[0])
	return lab, g.H
}

// nonPhysicalXFaces counts the x-faces of lab whose high-order minus state
// fails the physical check, i.e. the faces where the fallback replaces it.
func nonPhysicalXFaces(lab *grid.Lab, n int) int {
	zs := NewZSlice(n)
	count := 0
	for z := 0; z < n; z++ {
		zs.Convert(lab, z)
		for iy := 0; iy < n; iy++ {
			for f := 0; f <= n; f++ {
				if m, _ := wenoFace(zs, zs.Idx(0, iy), f, 1, zs.U, zs.V, zs.W); !physical(m) {
					count++
				}
			}
		}
	}
	return count
}

// bitsHash is the hex SHA-256 of the bit patterns of v.
func bitsHash(v []float32) string {
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// dispatches lists the row-kernel choices this CPU runs: the Go loop and,
// where the CPU has it, AVX2.
func dispatches() []bool {
	if hasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// dispatchName names a row-kernel choice in subtest and sub-benchmark names.
func dispatchName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// rhsWith is NewRHS with the row-kernel choice avx2.
func rhsWith(n int, avx2 bool) *RHS {
	r := NewRHS(n)
	r.avx2 = avx2
	return r
}

// withDispatch runs f as a parallel subtest once per choice in dispatches.
func withDispatch(t *testing.T, f func(t *testing.T, avx2 bool)) {
	for _, avx2 := range dispatches() {
		t.Run(dispatchName(avx2), func(t *testing.T) {
			t.Parallel()
			f(t, avx2)
		})
	}
}

// TestRowDriverMatchesStaged: the row driver produces the same bits as the
// per-face staged oracle (stagedRHS), through Compute and through
// ComputeFused, on rough two-phase fields at every block edge the solver
// accepts, with and without the AVX2 row kernel.
func TestRowDriverMatchesStaged(t *testing.T) {
	withDispatch(t, func(t *testing.T, avx2 bool) {
		for _, n := range []int{6, 7, 8, 9, 12, 16, 32} {
			for seed := int64(1); seed <= 2; seed++ {
				lab, h := roughLab(n, seed)
				if seed == 1 && nonPhysicalXFaces(lab, n) == 0 {
					t.Fatalf("n=%d: the field never triggers the first-order fallback", n)
				}
				size := n * n * n * nq
				row, staged := rhsWith(n, avx2), newStagedRHS(n)
				got, want := make([]float32, size), make([]float32, size)
				row.Compute(lab, h, got)
				staged.Compute(lab, h, want)
				for i := range want {
					if math.IsNaN(float64(want[i])) {
						t.Fatalf("n=%d seed=%d: NaN in the staged RHS at %d", n, seed, i)
					}
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d seed=%d elem %d: row driver %g, staged %g", n, seed, i, got[i], want[i])
					}
				}
				u1, reg1 := make([]float32, size), make([]float32, size)
				for i := range u1 {
					u1[i], reg1[i] = float32(i%97)*0.25, float32(i%13)*0.5
				}
				u2, reg2 := append([]float32(nil), u1...), append([]float32(nil), reg1...)
				row.ComputeFused(lab, h, u1, reg1, RK3A[1], RK3B[1], 1e-7)
				staged.ComputeFused(lab, h, u2, reg2, RK3A[1], RK3B[1], 1e-7)
				if bitsHash(u1) != bitsHash(u2) || bitsHash(reg1) != bitsHash(reg2) {
					t.Fatalf("n=%d seed=%d: fused RHS+UP differs between the row driver and the staged path", n, seed)
				}
			}
		}
	})
}

// TestRHSGolden: the RHS of the rough seed-1 field hashes to the bits the
// per-face driver produced when testdata/rhs_golden.json was recorded, for
// the row driver and the per-face oracle, under both dispatches.
func TestRHSGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/rhs_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Seed   int64             `json:"seed"`
		Hashes map[string]string `json:"sha256_by_n"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Hashes) != 4 {
		t.Fatalf("golden file has %d block sizes, want 4", len(golden.Hashes))
	}
	withDispatch(t, func(t *testing.T, avx2 bool) {
		for key, want := range golden.Hashes {
			n, err := strconv.Atoi(key)
			if err != nil {
				t.Fatal(err)
			}
			lab, h := roughLab(n, golden.Seed)
			for name, r := range map[string]rhsKernel{"row driver": rhsWith(n, avx2), "staged oracle": newStagedRHS(n)} {
				out := make([]float32, n*n*n*nq)
				r.Compute(lab, h, out)
				if got := bitsHash(out); got != want {
					t.Errorf("n=%d %s: RHS hash %s, golden %s", n, name, got, want)
				}
			}
		}
	})
}

// TestRHSZeroAllocs: an RHS evaluation allocates nothing under either
// dispatch; the row driver's per-row slice views stay on the stack. It is
// not parallel: AllocsPerRun counts the whole process's allocations.
func TestRHSZeroAllocs(t *testing.T) {
	const n = 8
	lab, h := roughLab(n, 1)
	size := n * n * n * nq
	out, u, reg := make([]float32, size), make([]float32, size), make([]float32, size)
	for _, avx2 := range dispatches() {
		r := rhsWith(n, avx2)
		if a := testing.AllocsPerRun(10, func() { r.Compute(lab, h, out) }); a != 0 {
			t.Errorf("avx2=%v: Compute allocates %v per call", avx2, a)
		}
		if a := testing.AllocsPerRun(10, func() { r.ComputeFused(lab, h, u, reg, RK3A[1], RK3B[1], 1e-7) }); a != 0 {
			t.Errorf("avx2=%v: ComputeFused allocates %v per call", avx2, a)
		}
	}
}
