package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/dump"
	"cubism/internal/mpi"
)

// dumped are the paper's dump quantities with their decimation thresholds.
var dumped = []struct {
	q   compress.Quantity
	eps float64
}{{compress.Pressure, 1e-2}, {compress.Gamma, 1e-3}}

// fieldBound is the L∞ reconstruction bound of a decimated field as a
// multiple of ε × the block's largest magnitude, the factor
// internal/compress's own error-bound test holds the pipeline to.
const fieldBound = 25

// snapshotRound is one round of snapshot32_io: build two inproc ranks, warm
// the collapse field up (set-up), then timed cycles of a write half (p and Γ
// dumps to a shared file and as a streamed frame, full-state checkpoint) and
// a read half (both dumps read and decompressed, checkpoint restored). The
// halves sit side by side so that a gain on one side paid for on the other
// shows. op = write half, aux = read half.
func snapshotRound(sp spec, e *env, rec *recorder) (round, error) {
	t0 := time.Now()
	root := rec.begin("workload."+sp.name, -1)
	dir, err := e.tempDir("snapshot-")
	if err != nil {
		return round{}, err
	}
	s := rec.begin("scenario.Build", root)
	c, err := buildCase(sp, e.seed)
	rec.end(s)
	if err != nil {
		return round{}, err
	}
	ckpt := filepath.Join(dir, "state.ckp")
	var rd round
	var frames [2][]byte         // rank 0's streamed frame images of the cycle
	var decoded [2][][][]float32 // [quantity][writer rank][block] fields rank 0 decoded
	var sizes map[string]float64 // file sizes of the last cycle
	errs := make([]error, sp.nRanks())
	var inproc *mesh
	err = inproc.run(sp.nRanks(), func(comm *mpi.Comm) {
		rank, rank0 := comm.Rank(), comm.Rank() == 0
		// A failing call is recorded and the rank carries on: leaving the
		// collective pattern would hang its peer at the next barrier.
		note := func(err error) {
			if err != nil && errs[rank] == nil {
				errs[rank] = err
			}
		}
		tr := rec
		if !rank0 {
			tr = nil
		}
		ccfg := c.Config.Cluster
		ccfg.Init = nil
		s := tr.begin("cluster.NewRank", root)
		r := cluster.NewRank(comm, ccfg)
		tr.end(s)
		defer r.Close()
		s = tr.begin("cluster.Initialize", root)
		r.Initialize(c.Config.Cluster.Init)
		tr.end(s)
		for i := 0; i < sp.warmSteps; i++ {
			tracedStep(tr, root, r)
		}
		s = tr.begin("check.ConservedTotals", root)
		before := r.ConservedTotals()
		tr.end(s)
		if rank0 {
			rd.totals = before
			rd.setupS = time.Since(t0).Seconds()
		}
		for cyc := 0; cyc < sp.cycles; cyc++ {
			// Write half.
			tw := time.Now()
			for qi, dq := range dumped {
				target := cluster.DumpTarget{Path: filepath.Join(dir, dq.q.String()+".mpcf"), Stream: true}
				if rank0 {
					target.Sink = func(f dump.Frame) error {
						frames[qi] = f.Data
						return nil
					}
				}
				io0 := r.Mon.Kernel("IO").Stats().Total
				s = tr.begin("cluster.DumpTo", root)
				st, _, err := r.DumpTo(target, dq.q, dq.eps, "zlib")
				tr.end(s)
				note(err)
				if tr != nil {
					workers := time.Duration(max(len(st.DecTimes), 1))
					tr.child(s, "compress.fwt_decimate", sum(st.DecTimes)/workers)
					tr.child(s, "compress.encode", sum(st.EncTimes)/workers)
					tr.child(s, "dump.write_stream", r.Mon.Kernel("IO").Stats().Total-io0)
				}
			}
			s = tr.begin("checkpoint.Write", root)
			note(r.SaveCheckpoint(ckpt))
			tr.end(s)
			s = tr.begin("mpi.Barrier", root)
			comm.Barrier()
			tr.end(s)
			writeMS := time.Since(tw).Seconds() * 1e3

			// Lose a block, so that the restore below has something to
			// bring back.
			clear(r.G.Blocks[0].Data)

			// Read half: rank 0 reads and decodes both files, as a
			// post-processing tool would; every rank restores its blocks.
			tr0 := time.Now()
			if rank0 {
				for qi, dq := range dumped {
					s = tr.begin("dump.Read", root)
					_, comps, err := dump.Read(filepath.Join(dir, dq.q.String()+".mpcf"))
					tr.end(s)
					note(err)
					s = tr.begin("compress.Decompress", root)
					decoded[qi] = make([][][]float32, len(comps))
					for rk, comp := range comps {
						fields, err := comp.Decompress()
						note(err)
						decoded[qi][rk] = fields
					}
					tr.end(s)
				}
			}
			s = tr.begin("checkpoint.Restore", root)
			note(r.RestoreCheckpoint(ckpt))
			tr.end(s)
			s = tr.begin("mpi.Barrier", root)
			comm.Barrier()
			tr.end(s)
			readMS := time.Since(tr0).Seconds() * 1e3

			// Checks, outside both halves. Each rank holds the fields rank
			// 0 decoded from its payload against its restored blocks.
			s = tr.begin("check.cycle", root)
			after := r.ConservedTotals()
			note(checkFields(r, rank, &decoded))
			if rank0 {
				terr := sameTotals(before, after)
				e.chk.ok(terr == nil, "%s: cycle %d: totals changed across checkpoint restore: %v", sp.name, cyc, terr)
				sizes = map[string]float64{}
				for qi, dq := range dumped {
					file, err := os.ReadFile(filepath.Join(dir, dq.q.String()+".mpcf"))
					e.chk.ok(err == nil && bytes.Equal(file, frames[qi]),
						"%s: cycle %d: streamed %s frame differs from the dump file", sp.name, cyc, dq.q)
					sizes["dump_"+dq.q.String()] = float64(len(file))
				}
				if fi, err := os.Stat(ckpt); err == nil {
					sizes["checkpoint"] = float64(fi.Size())
				}
				rd.op = append(rd.op, writeMS)
				rd.aux = append(rd.aux, readMS)
				rd.wallS += (writeMS + readMS) / 1e3
				rd.ops++
			}
			tr.end(s)
		}
	})
	rec.end(root)
	if err != nil {
		return round{}, err
	}
	for rank, rerr := range errs {
		e.chk.ok(rerr == nil, "%s: rank %d: %v", sp.name, rank, rerr)
	}
	for i := rd.ops; i < sp.cycles; i++ {
		e.chk.ok(false, "%s: cycle %d did not complete", sp.name, i)
	}
	t := rd.totals
	e.compare(sp, "totals", map[string]float64{"mass": t.Mass, "energy": t.Energy, "abs_mom": t.AbsMomSum, "time": t.Time}, 1e-6)
	// Byte counts move with the zlib implementation of the Go release, so
	// they are held to 2 %, not exactly.
	e.compare(sp, "bytes", sizes, 0.02)
	return rd, nil
}

// checkFields compares the fields rank 0 decoded from this rank's dump
// payload with the rank's live blocks, cell by cell, against the ε bound.
func checkFields(r *cluster.Rank, rank int, decoded *[2][][][]float32) error {
	n := r.G.N
	buf := make([]float32, n*n*n)
	for qi, dq := range dumped {
		if rank >= len(decoded[qi]) || len(decoded[qi][rank]) != len(r.G.Blocks) {
			return fmt.Errorf("%s: rank %d payload missing from the decoded dump", dq.q, rank)
		}
		for bi, b := range r.G.Blocks {
			dq.q.Extract(b, buf)
			var scale float64
			for _, x := range buf {
				scale = max(scale, math.Abs(float64(x)))
			}
			bound := fieldBound * dq.eps * scale
			for i, x := range buf {
				if d := math.Abs(float64(decoded[qi][rank][bi][i] - x)); !(d <= bound) {
					return fmt.Errorf("%s: block %d cell %d off by %g, bound %g", dq.q, bi, i, d, bound)
				}
			}
		}
	}
	return nil
}

func sum(ds []time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}
