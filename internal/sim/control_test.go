package sim

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"cubism/internal/cluster"
)

// controlCfg is the small 2-rank Sod problem of the restore tests, with
// the conserved-totals sink attached.
func controlCfg(steps int, sink *cluster.Totals) Config {
	cfg := Config{
		Cluster: cluster.Config{
			RankDims:  [3]int{2, 1, 1},
			BlockDims: [3]int{2, 1, 1},
			BlockSize: 8,
			Extent:    1,
			Workers:   2,
			CFL:       0.3,
			Init:      SodInit,
		},
		Steps:     steps,
		DiagEvery: 1 << 30,
	}
	if sink != nil {
		cfg.OnFinish = func(r *cluster.Rank) {
			tot := r.ConservedTotals()
			if r.Comm.Rank() == 0 {
				*sink = tot
			}
		}
	}
	return cfg
}

// TestControllerStopsAtBoundaryWithCheckpoint: Stop() mid-run must end the
// run at the next step boundary with Summary.Stopped set, write the final
// checkpoint there (StopCheckpoint, no periodic cadence), and a restored
// run must finish on conserved totals bitwise identical to an
// uninterrupted run — cancellation costs no physics.
func TestControllerStopsAtBoundaryWithCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "stop.ckp")

	// Reference: the uninterrupted 8-step run.
	var ref cluster.Totals
	if _, err := Run(controlCfg(8, &ref), nil); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Stopped run: request the stop from the rank-0 step callback after
	// step 3. The collective stop check must drain BOTH ranks at the step-4
	// boundary even though only rank 0's controller flag is set locally.
	ctl := NewController()
	stopped := controlCfg(8, nil)
	stopped.Control = ctl
	stopped.StopCheckpoint = true
	stopped.CheckpointPath = ckpt
	sum, err := Run(stopped, func(s StepInfo) {
		if s.Step == 3 {
			ctl.Stop("test cancel")
		}
	})
	if err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	if !sum.Stopped {
		t.Fatalf("Summary.Stopped = false after a controller stop")
	}
	if sum.StopReason != "test cancel" {
		t.Fatalf("StopReason = %q, want %q", sum.StopReason, "test cancel")
	}
	if sum.Steps != 3 {
		t.Fatalf("stopped run ended at step %d, want the boundary after step 3", sum.Steps)
	}
	select {
	case <-ctl.Done():
	default:
		t.Fatal("controller Done channel not closed after Stop")
	}
	select {
	case <-ctl.Acked():
	default:
		t.Fatal("controller Acked channel not closed after the boundary stop")
	}

	// Resume: exactly steps 4..8 run, and the final totals match the
	// uninterrupted run bit for bit.
	var got cluster.Totals
	resumed := controlCfg(8, &got)
	resumed.RestorePath = ckpt
	var stepsSeen []int
	if _, err := Run(resumed, func(s StepInfo) { stepsSeen = append(stepsSeen, s.Step) }); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if len(stepsSeen) != 5 || stepsSeen[0] != 4 || stepsSeen[4] != 8 {
		t.Fatalf("resumed run executed steps %v, want [4 5 6 7 8]", stepsSeen)
	}
	AssertTotalsBitwise(t, "resumed-after-cancel vs uninterrupted", ref, got)
}

// TestControllerStopBeforeFirstStep: a stop requested before the run
// begins must drain it before any step executes.
func TestControllerStopBeforeFirstStep(t *testing.T) {
	ctl := NewController()
	ctl.Stop("pre-run")
	cfg := controlCfg(8, nil)
	cfg.Control = ctl
	steps := 0
	sum, err := Run(cfg, func(StepInfo) { steps++ })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if steps != 0 || sum.Steps != 0 || !sum.Stopped {
		t.Fatalf("pre-stopped run executed %d steps (summary %d, stopped %v), want none",
			steps, sum.Steps, sum.Stopped)
	}
}

// TestControllerNoStopIsInert: an attached controller that never fires
// must not change the run's physics (the per-step stop allreduce is pure
// control traffic).
func TestControllerNoStopIsInert(t *testing.T) {
	var ref, got cluster.Totals
	if _, err := Run(controlCfg(6, &ref), nil); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cfg := controlCfg(6, &got)
	cfg.Control = NewController()
	sum, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("controlled run: %v", err)
	}
	if sum.Stopped {
		t.Fatal("idle controller reported Stopped")
	}
	AssertTotalsBitwise(t, "idle controller vs plain", ref, got)
}

// TestRunRestoreMissingCheckpoint: both in-process ranks fail their
// restore. Run reports one error (race-free under -race) that names the
// path once and still unwraps to fs.ErrNotExist.
func TestRunRestoreMissingCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.ckp")
	cfg := controlCfg(2, nil)
	cfg.RestorePath = path
	_, err := Run(cfg, nil)
	if err == nil {
		t.Fatal("restore from a missing checkpoint succeeded")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("error %q does not unwrap to fs.ErrNotExist", err)
	}
	if n := strings.Count(err.Error(), path); n != 1 {
		t.Errorf("error %q names the checkpoint path %d times, want once", err, n)
	}
}
