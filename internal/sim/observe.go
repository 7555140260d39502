package sim

// The sim side of the cluster-wide performance observatory: every rank
// ships its step's phase times (StepInfo.PhaseMS) as a PhaseSample at each
// step boundary — plus, on distributed worlds, its freshly drained
// tracer spans and a counter snapshot — to the collector on rank 0 over a
// dedicated observatory stream tag. The flush runs strictly between steps,
// after the step's last ghost exchange opened a fresh tag epoch, so it can
// never collide with halo traffic. Rank 0 periodically rewrites the merged
// trace and the imbalance report via temp+rename, so even a killed run
// leaves loadable artifacts.

import (
	"encoding/json"
	"fmt"
	"os"

	"cubism/internal/mpi"
	"cubism/internal/telemetry"
)

// ObserveConfig enables the cross-rank observatory.
type ObserveConfig struct {
	// TracePath receives the merged, clock-aligned Chrome trace (rank 0).
	TracePath string
	// ReportPath receives the Table-4-shaped text imbalance report (rank 0).
	ReportPath string
	// ReportJSONPath receives the machine-readable report (rank 0).
	ReportJSONPath string
}

// The observatory cadences: distributed worlds re-run the clock-offset
// ping-pong (obsSyncSamples round trips per peer) every obsSyncEvery steps
// on top of the sync at start, and rank 0 rewrites the artifacts every
// obsWriteEvery steps so a killed run leaves usable partial output.
const (
	obsSyncEvery   = 64
	obsSyncSamples = 8
	obsWriteEvery  = 16
)

// observer is the per-rank observatory state. Rank 0 holds the aggregator
// and writes the artifacts; other ranks only sample and ship.
type observer struct {
	cfg         ObserveConfig
	comm        *mpi.Comm
	tracer      *telemetry.Tracer
	reg         *telemetry.Registry
	distributed bool
	root        bool
	ranks       int

	agg *telemetry.Aggregator // rank 0 only
	est []telemetry.ClockEstimator

	sinceWrite, flushed int
}

func newObserver(cfg ObserveConfig, comm *mpi.Comm, tracer *telemetry.Tracer,
	reg *telemetry.Registry, distributed bool) *observer {
	o := &observer{
		cfg:         cfg,
		comm:        comm,
		tracer:      tracer,
		reg:         reg,
		distributed: distributed,
		root:        comm.Rank() == 0,
		ranks:       comm.Size(),
	}
	if o.root {
		o.agg = telemetry.NewAggregator(o.ranks)
		o.est = make([]telemetry.ClockEstimator, o.ranks)
	}
	return o
}

// syncClocks runs one clock-offset ping-pong burst: rank 0 measures each
// peer in turn; every rank must call this at the same point of the step
// schedule. Estimators persist across bursts, so the minimum-RTT filter
// keeps improving over the run. No-op on in-process worlds (one clock).
func (o *observer) syncClocks() {
	if !o.distributed || o.ranks == 1 {
		return
	}
	if o.root {
		for peer := 1; peer < o.ranks; peer++ {
			est := &o.est[peer]
			for k := 0; k < obsSyncSamples; k++ {
				t0 := o.tracer.Now()
				o.comm.SendBytes(peer, mpi.TagObsPing(k), []byte{1})
				reply := o.comm.RecvInts(peer, mpi.TagObsPong(k))
				t3 := o.tracer.Now()
				if len(reply) == 2 {
					est.Add(t0, reply[0], reply[1], t3)
				}
			}
			o.agg.SetClockOffset(peer, est.Offset())
		}
		return
	}
	for k := 0; k < obsSyncSamples; k++ {
		o.comm.RecvBytes(0, mpi.TagObsPing(k))
		t1 := o.tracer.Now()
		o.comm.SendInts(0, mpi.TagObsPong(k), []int64{t1, o.tracer.Now()})
	}
}

// flush runs the step-boundary exchange of this rank's sample s: non-root
// ranks ship one batch to rank 0 (including drained spans and a counter
// snapshot on distributed worlds — in-process worlds share one tracer and
// registry, so shipping those would double-count); rank 0 ingests all
// batches and periodically rewrites the artifacts.
func (o *observer) flush(s telemetry.PhaseSample) error {
	if !o.root {
		b := telemetry.RankBatch{Rank: o.comm.Rank(), Steps: []telemetry.PhaseSample{s}}
		if o.distributed {
			b.Spans = o.tracer.Drain()
			b.Counters = telemetry.ScalarSnapshot(o.reg)
		}
		o.comm.SendBytes(0, mpi.TagObsBatch(), b.Encode())
	} else {
		o.agg.AddSample(0, s)
		for peer := 1; peer < o.ranks; peer++ {
			b, err := telemetry.DecodeBatch(o.comm.RecvBytes(peer, mpi.TagObsBatch()))
			if err != nil {
				o.agg.MarkMissing(peer, s.Step)
				continue
			}
			o.agg.AddBatch(b)
		}
	}
	o.flushed++
	if o.flushed%obsSyncEvery == 0 {
		o.syncClocks()
	}
	if o.root {
		o.sinceWrite++
		if o.sinceWrite >= obsWriteEvery {
			o.sinceWrite = 0
			if err := o.writeArtifacts(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish writes the final artifacts and returns the report (rank 0).
func (o *observer) finish() (*telemetry.ImbalanceReport, error) {
	if !o.root {
		return nil, nil
	}
	if err := o.writeArtifacts(); err != nil {
		return nil, err
	}
	return o.agg.Report(), nil
}

// writeArtifacts rewrites the merged trace and the imbalance report via
// temp+rename, so a reader (or a crash) never sees a torn file.
func (o *observer) writeArtifacts() error {
	if o.cfg.TracePath != "" {
		// On an in-process world the shared tracer already holds every
		// rank's spans; on a distributed world it holds rank 0's, and the
		// aggregator holds the clock-aligned remote ones.
		tf := o.agg.MergedTrace(o.tracer.Records())
		if err := writeJSONAtomic(o.cfg.TracePath, tf); err != nil {
			return fmt.Errorf("sim: merged trace: %w", err)
		}
	}
	if o.cfg.ReportPath != "" || o.cfg.ReportJSONPath != "" {
		rep := o.agg.Report()
		if o.cfg.ReportPath != "" {
			if err := writeAtomic(o.cfg.ReportPath, func(f *os.File) error {
				return rep.WriteText(f)
			}); err != nil {
				return fmt.Errorf("sim: imbalance report: %w", err)
			}
		}
		if o.cfg.ReportJSONPath != "" {
			if err := writeJSONAtomic(o.cfg.ReportJSONPath, rep); err != nil {
				return fmt.Errorf("sim: imbalance report json: %w", err)
			}
		}
	}
	return nil
}

func writeJSONAtomic(path string, v any) error {
	return writeAtomic(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

func writeAtomic(path string, fill func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
