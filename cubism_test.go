package cubism

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestPublicAPISodRun: the quickstart flow through the public façade.
func TestPublicAPISodRun(t *testing.T) {
	var steps int
	sum, err := Run(Config{
		Cluster: ClusterConfig{
			BlockDims: [3]int{2, 1, 1},
			BlockSize: 8,
			Extent:    1,
			Init:      SodInit,
		},
		Steps: 4,
	}, func(s StepInfo) { steps++ })
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4 || sum.Steps != 4 {
		t.Fatalf("steps %d / %d", steps, sum.Steps)
	}
}

func TestPublicAPICloudWithDumps(t *testing.T) {
	dir := t.TempDir()
	bubbles, err := GenerateCloud(CloudSpec{
		Center: [3]float64{0.5, 0.5, 0.5},
		Radius: 0.3,
		N:      4,
		RMin:   0.05, RMax: 0.1,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bubbles) != 4 {
		t.Fatalf("bubbles = %d", len(bubbles))
	}
	_, err = Run(Config{
		Cluster: ClusterConfig{
			BlockDims: [3]int{2, 2, 2},
			BlockSize: 8,
			Extent:    1,
			BC:        WallBC(ZLo),
			Init:      CloudField(bubbles, 0.03),
		},
		Steps:     2,
		DumpEvery: 2,
		DumpDir:   dir,
		Wall:      ZLo,
		HasWall:   true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read the dump back through the public API.
	hdr, fields, err := ReadDump(filepath.Join(dir, "p_step000002.mpcf"))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Quantity != "p" || hdr.BlockSize != 8 {
		t.Fatalf("header %+v", hdr)
	}
	if len(fields) != 1 || len(fields[0]) != 8 {
		t.Fatalf("expected 1 rank x 8 blocks, got %d x %d", len(fields), len(fields[0]))
	}
	for _, blk := range fields[0] {
		for _, v := range blk {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatal("non-finite value in dump")
			}
		}
	}
}

// TestPublicAPIMultiRank: a multi-rank Run steps on the production
// pipelined model — fused RHSUP stages fed by per-link halo installs, never
// a separate UP phase.
func TestPublicAPIMultiRank(t *testing.T) {
	tel := &Telemetry{Tracer: NewTracer()}
	sum, err := Run(Config{
		Cluster: ClusterConfig{
			RankDims:  [3]int{2, 1, 1},
			BlockDims: [3]int{1, 1, 1},
			BlockSize: 8,
			Extent:    1,
			Init:      SodInit,
		},
		Steps:     3,
		DiagEvery: 1,
		Telemetry: tel,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GlobalCells != 2*8*8*8 {
		t.Fatalf("cells = %d", sum.GlobalCells)
	}
	spans := map[string]int{}
	for _, ev := range tel.Tracer.Export().TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	if spans["RHSUP"] == 0 || spans["halo_install"] == 0 {
		t.Errorf("trace has %d RHSUP and %d halo_install spans, want both > 0",
			spans["RHSUP"], spans["halo_install"])
	}
	if spans["UP"] != 0 {
		t.Errorf("trace has %d staged UP spans, want 0", spans["UP"])
	}
}

func TestMixEndpointsPublic(t *testing.T) {
	g, pi := Mix(Liquid, Vapor, 0)
	if g != Liquid.G() || pi != Liquid.P() {
		t.Error("Mix(0) wrong")
	}
}

func TestDefaultBCConstructors(t *testing.T) {
	if DefaultBC()[XLo] != Absorbing {
		t.Error("default BC not absorbing")
	}
	if WallBC(ZLo)[ZLo] != Reflecting {
		t.Error("wall BC not reflecting")
	}
	if PeriodicBC()[YHi] != Periodic {
		t.Error("periodic BC wrong")
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
