package sim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cubism/internal/cluster"
	"cubism/internal/dump"
	"cubism/internal/transport/faulty"
)

// AssertTotalsBitwise fails t unless every field of got carries the bits
// of ref: the integrals, the material bounds, the simulated time and the
// step count. It is exported for the bitwise matrix in package sim_test.
func AssertTotalsBitwise(t testing.TB, label string, ref, got cluster.Totals) {
	t.Helper()
	rv, gv := reflect.ValueOf(ref), reflect.ValueOf(got)
	for i := range rv.NumField() {
		a, b := rv.Field(i), gv.Field(i)
		same := a.Equal(b)
		if a.Kind() == reflect.Float64 {
			same = math.Float64bits(a.Float()) == math.Float64bits(b.Float())
		}
		if !same {
			t.Errorf("%s: %s diverged: %v vs %v", label, rv.Type().Field(i).Name, a, b)
		}
	}
}

// TestFrameStreamBitwiseUnderChaos extends the chaos keystone to the dump
// path: a 2-rank run that compresses and streams every snapshot over a
// seeded faulty wire must deliver frames to the rank-0 sink that are
// bitwise identical to the dump files the very same run wrote locally.
// TagDump rides the reliability layer like any other traffic, so dropped,
// duplicated or reset frame chunks must reassemble without a flipped bit.
func TestFrameStreamBitwiseUnderChaos(t *testing.T) {
	dumpDir := t.TempDir()
	const steps = 2
	plan := faulty.Plan{Seed: 2013, Drop: 0.06, Dup: 0.06, Reset: 0.01}
	var faults atomic.Int64
	worlds := ConnectLoopback(t, 2, &plan, &faults)

	// Rank 0's sink runs serially inside its step loop: no lock needed.
	var frames []dump.Frame
	runErrs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, runErrs[rank] = Run(Config{
				Cluster: cluster.Config{
					RankDims:  [3]int{2, 1, 1},
					BlockDims: [3]int{2, 1, 1},
					BlockSize: 8,
					Extent:    1,
					Workers:   2,
					CFL:       0.3,
					Init:      SodInit,
					Pipeline:  true,
				},
				Steps:        steps,
				DiagEvery:    1 << 30,
				DumpEvery:    1,
				DumpDir:      dumpDir,
				Encoder:      "huff",
				StreamFrames: true,
				World:        worlds[rank],
				FrameSink: func(f dump.Frame) error {
					frames = append(frames, f)
					return nil
				},
			}, nil)
		}()
	}
	wg.Wait()
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}

	// Every dump step streams one frame per quantity (p and Γ).
	if want := steps * 2; len(frames) != want {
		t.Fatalf("sink received %d frames, want %d", len(frames), want)
	}
	for _, f := range frames {
		file, err := os.ReadFile(filepath.Join(dumpDir, f.Name))
		if err != nil {
			t.Fatalf("frame %s has no local dump file: %v", f.Name, err)
		}
		if !bytes.Equal(f.Data, file) {
			t.Errorf("frame %s: streamed bytes differ from the local dump file (%d vs %d bytes)",
				f.Name, len(f.Data), len(file))
		}
		if _, _, err := dump.Decode(f.Data); err != nil {
			t.Errorf("frame %s does not decode: %v", f.Name, err)
		}
	}
	if faults.Load() == 0 {
		t.Fatalf("plan %q injected no faults; the run proved nothing", plan.String())
	}
	t.Logf("faults injected: %d across %d frames", faults.Load(), len(frames))
}
