package sim

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubism/internal/cluster"
)

func smallConfig() Config {
	return Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{1, 1, 1},
			BlockDims: [3]int{2, 1, 1},
			BlockSize: 8,
			Extent:    1,
			Workers:   2,
			CFL:       0.3,
			Init:      SodInit,
		},
		Steps: 5,
	}
}

func TestRunStepsAndSummary(t *testing.T) {
	var infos []StepInfo
	sum, err := Run(smallConfig(), func(s StepInfo) { infos = append(infos, s) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Steps != 5 {
		t.Fatalf("steps = %d, want 5", sum.Steps)
	}
	if len(infos) != 5 {
		t.Fatalf("callbacks = %d, want 5", len(infos))
	}
	if sum.GlobalCells != 2*8*8*8 {
		t.Fatalf("cells = %d", sum.GlobalCells)
	}
	if sum.PointsPerSec <= 0 {
		t.Fatal("points/s not positive")
	}
	for i, s := range infos {
		if s.Step != i+1 {
			t.Fatalf("info %d has step %d", i, s.Step)
		}
		if s.DT <= 0 || math.IsNaN(s.DT) {
			t.Fatalf("dt = %g", s.DT)
		}
		if !s.HasDiag {
			t.Fatal("diagnostics expected every step by default")
		}
	}
	// Time increases monotonically.
	for i := 1; i < len(infos); i++ {
		if infos[i].Time <= infos[i-1].Time {
			t.Fatal("time not increasing")
		}
	}
}

func TestRunTEndStopsEarly(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 100000
	cfg.TEnd = 1e-2
	sum, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SimTime < 1e-2 {
		t.Fatalf("stopped at t=%g before TEnd", sum.SimTime)
	}
	if sum.Steps >= 100000 {
		t.Fatal("TEnd did not stop the run")
	}
}

func TestRunMultiRankDumps(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{2, 1, 1},
			BlockDims: [3]int{1, 1, 1},
			BlockSize: 8,
			Extent:    1,
			Workers:   1,
			CFL:       0.3,
			Init:      SodInit,
		},
		Steps:     4,
		DumpEvery: 2,
		DumpDir:   dir,
		DiagEvery: 2,
	}
	var rates []map[string]float64
	sum, err := Run(cfg, func(s StepInfo) {
		if s.DumpRates != nil {
			rates = append(rates, s.DumpRates)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Steps != 4 {
		t.Fatalf("steps = %d", sum.Steps)
	}
	if len(rates) != 2 {
		t.Fatalf("dump callbacks = %d, want 2", len(rates))
	}
	for _, r := range rates {
		if r["p"] <= 1 || r["G"] <= 1 {
			t.Fatalf("implausible rates %v", r)
		}
	}
	// Files exist and parse.
	for _, name := range []string{"p_step000002.mpcf", "G_step000002.mpcf", "p_step000004.mpcf", "G_step000004.mpcf"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing dump %s: %v", name, err)
		}
	}
}

func TestRunDiagCadence(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 6
	cfg.DiagEvery = 3
	var withDiag int
	if _, err := Run(cfg, func(s StepInfo) {
		if s.HasDiag {
			withDiag++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if withDiag != 2 {
		t.Fatalf("diagnostics at %d steps, want 2", withDiag)
	}
}

func TestRunInvalidRanks(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"rank dims":  func(c *Config) { c.Cluster.RankDims = [3]int{0, 1, 1} },
		"block dims": func(c *Config) { c.Cluster.BlockDims = [3]int{0, 1, 1} },
		"layout":     func(c *Config) { c.Cluster.Layout = "bogus" },
		"encoder":    func(c *Config) { c.Encoder = "bogus" },
		"dump on 12³ blocks": func(c *Config) {
			c.Cluster.BlockSize = 12
			c.DumpEvery = 1
		},
	} {
		// Each is a configuration error returned before any rank starts,
		// not a panic inside a rank goroutine.
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("expected an error for invalid %s", name)
		}
	}
}

// TestRunBlockSizeTooSmall: a block edge below twice the stencil width is
// a configuration error returned before any rank starts, not a panic
// inside a rank goroutine.
func TestRunBlockSizeTooSmall(t *testing.T) {
	cfg := smallConfig()
	cfg.Cluster.BlockSize = 5
	_, err := Run(cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "block size 5") {
		t.Errorf("Run with block size 5: err = %v, want a block size error", err)
	}
}

func TestSodInitStates(t *testing.T) {
	l := SodInit(0.25, 0, 0)
	r := SodInit(0.75, 0, 0)
	if l.Rho != 1 || l.P != 1 || r.Rho != 0.125 || r.P != 0.1 {
		t.Errorf("Sod states wrong: %+v %+v", l, r)
	}
	if l.G != r.G {
		t.Error("Sod must be single-phase")
	}
}

// TestKernelSharesShape: RHS must dominate the step time (paper Figure 7).
func TestKernelSharesShape(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 3
	sum, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.KernelShare["RHS"] < 0.5 {
		t.Errorf("RHS share %.2f, want > 0.5", sum.KernelShare["RHS"])
	}
	if sum.KernelShare["UP"] > sum.KernelShare["RHS"] {
		t.Error("UP share exceeds RHS share")
	}
}
