package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"cubism/internal/core"
)

const quick = 50 * time.Millisecond

func TestTable3Output(t *testing.T) {
	var b bytes.Buffer
	Table3(&b, 16)
	out := b.String()
	for _, want := range []string{"Table 3", "Naive", "Reordered", "Factor", "ridge"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable4ImbalanceShape(t *testing.T) {
	var b bytes.Buffer
	res := Table4(&b, 16)
	// The statistics must be non-negative and finite; with few workers on a
	// homogeneous field, imbalance can legitimately be small.
	for _, v := range []float64{res.DecG, res.EncG, res.IOG, res.DecP, res.EncP, res.IOP} {
		if v < 0 || v > 1000 {
			t.Errorf("implausible imbalance %g", v)
		}
	}
}

// TestTable8Output: Table 8 prints every stage, the AVX2 stages at density
// 1 (the kernels issue no FMA) and BACK, the stage without a twin, as
// scalar.
func TestTable8Output(t *testing.T) {
	var b bytes.Buffer
	Table8(&b, 16)
	rows := map[string]string{}
	for _, l := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = l
		}
	}
	for _, want := range []string{"CONV", "WENO", "HLLE", "SUM", "BACK", "ALL"} {
		if _, ok := rows[want]; !ok {
			t.Errorf("missing stage %q in:\n%s", want, b.String())
		}
	}
	for _, s := range []string{"CONV", "WENO", "HLLE", "SUM"} {
		if !strings.Contains(rows[s], "1.00 x 4") {
			t.Errorf("%s row %q, want density 1.00 x 4", s, rows[s])
		}
	}
	for _, s := range []string{"BACK"} {
		if !strings.Contains(rows[s], "scalar") {
			t.Errorf("%s row %q, want scalar", s, rows[s])
		}
	}
}

// TestTable7Output: Table 7 prints the RHS row as the Go loop against
// AVX2 (n/a without it), UP as one rate in the column of the kernel it
// runs, DT and FWT as scalar rates only, and the paper's line, with no
// projection column.
func TestTable7Output(t *testing.T) {
	var b bytes.Buffer
	Table7(&b, 8, quick)
	out := b.String()
	rows := map[string][]string{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 4 {
			rows[f[0]] = f[1:]
		}
	}
	rhs := rows["RHS"]
	if len(rhs) != 3 {
		t.Fatalf("no RHS row in:\n%s", out)
	}
	if rhs[1] != "n/a" || rhs[2] != "n/a" {
		var scalar, vector, x float64
		if _, err := fmt.Sscanf(strings.Join(rhs, " "), "%f %f %fX", &scalar, &vector, &x); err != nil || scalar <= 0 || vector <= 0 || x <= 0 {
			t.Errorf("RHS row %q (%v) in:\n%s", rhs, err, out)
		}
	}
	if up := rows["UP"]; len(up) == 3 && nativeAVX2(8) {
		if up[0] != "-" || up[2] != "-" {
			t.Errorf("UP row %q, want the AVX2 rate only, in:\n%s", up, out)
		}
		rows["UP"] = []string{up[1], up[0], up[2]}
	}
	for _, k := range []string{"DT", "UP", "FWT"} {
		r := rows[k]
		if len(r) != 3 || r[1] != "-" || r[2] != "-" {
			t.Errorf("%s row %q, want a scalar rate only, in:\n%s", k, r, out)
			continue
		}
		if v, err := strconv.ParseFloat(r[0], 64); err != nil || v <= 0 {
			t.Errorf("%s rate %q in:\n%s", k, r[0], out)
		}
	}
	if !strings.Contains(out, "paper: RHS 2.21->8.27 (3.7X)") || strings.Contains(out, "projection") {
		t.Errorf("want the paper line and no projection column in:\n%s", out)
	}
}

// TestTable9Output: Table 9 prints the row driver's staged and fused RK
// stage, labelled with its row kernels, with positive rates, and the
// paper's line.
func TestTable9Output(t *testing.T) {
	var b bytes.Buffer
	Table9(&b, 8, quick)
	out := b.String()
	var row string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " staged ") {
			row = l
		}
	}
	var kernel string
	var staged, fused, imp float64
	if _, err := fmt.Sscanf(row, "%s staged %f GF/s fused %f GF/s improvement %fX", &kernel, &staged, &fused, &imp); err != nil {
		t.Fatalf("no staged/fused row (%v) in:\n%s", err, out)
	}
	if kernel != "go" && kernel != "avx2" {
		t.Errorf("row kernel %q, want go or avx2, in:\n%s", kernel, out)
	}
	if staged <= 0 || fused <= 0 || imp <= 0 {
		t.Errorf("rates staged %g fused %g improvement %g in:\n%s", staged, fused, imp, out)
	}
	if !strings.Contains(out, "paper (QPX): baseline 7.9 -> fused 9.2 GFLOP/s") {
		t.Errorf("missing the paper line in:\n%s", out)
	}
	if strings.Contains(out, "qpx ") {
		t.Errorf("a Vec4 row in:\n%s", out)
	}
}

func TestMeasureKernelsPositive(t *testing.T) {
	if v := MeasureRHS(8, core.NewRHSGo(8), quick); v <= 0 {
		t.Errorf("Go-loop RHS rate %g", v)
	}
	if v := MeasureRHS(8, core.NewRHS(8), quick); v <= 0 {
		t.Errorf("native RHS rate %g", v)
	}
	if v := MeasureDT(8, quick); v <= 0 {
		t.Errorf("DT rate %g", v)
	}
	if v := MeasureUP(8, quick); v <= 0 {
		t.Errorf("UP rate %g", v)
	}
}

func TestKernelRateCounts(t *testing.T) {
	calls := 0
	rate := KernelRate(1e6, 10*time.Millisecond, func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	if calls < 2 {
		t.Errorf("too few calls: %d", calls)
	}
	if rate <= 0 {
		t.Errorf("rate %g", rate)
	}
}

func TestCompressionExperimentRuns(t *testing.T) {
	var b bytes.Buffer
	Compression(&b, 16)
	if !strings.Contains(b.String(), "Gamma") && !strings.Contains(b.String(), "G") {
		t.Errorf("missing gamma row:\n%s", b.String())
	}
}

// TestFig5SeriesPhysical runs the Figure 5 case at 8³ blocks and checks
// the early collapse the paper's series opens with: the cloud gains kinetic
// energy and shrinks at every diagnostic, and no value goes non-finite.
func TestFig5SeriesPhysical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-driven experiment")
	}
	var b bytes.Buffer
	fig5(&b, 15, 8)
	var rows [][]float64
	for _, l := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.Count(l, ",") != 4 || strings.HasPrefix(l, "time,") {
			continue
		}
		var row []float64
		for _, f := range strings.Split(l, ",") {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite or malformed value %q in row %q", f, l)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	if len(rows) < 3 {
		t.Fatalf("want at least 3 CSV rows, got %d:\n%s", len(rows), b.String())
	}
	const ke, radius = 3, 4 // kinetic_energy, equiv_radius_norm
	for i := 1; i < len(rows); i++ {
		if rows[i][ke] <= rows[i-1][ke] {
			t.Errorf("kinetic energy not increasing at row %d: %g -> %g", i, rows[i-1][ke], rows[i][ke])
		}
		if rows[i][radius] >= rows[i-1][radius] {
			t.Errorf("equivalent radius not decreasing at row %d: %g -> %g", i, rows[i-1][radius], rows[i][radius])
		}
	}
}
