package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"cubism/internal/cluster"
)

type kind int

const (
	solver kind = iota
	snapshot
	jobs
)

// spec sizes one workload. Work is fixed by counts, never by time, so the
// operation counts of a run repeat exactly; --seconds only chooses how many
// identical rounds (set-up + timed work) are run.
type spec struct {
	name string
	kind kind
	// n is the block edge. The layer probes of the traced mode run at the
	// workload's own block size.
	n             int
	ranks, blocks [3]int
	workers       int  // pool workers per rank
	tcp           bool // ranks are single-rank worlds meshed over loopback tcp

	// solver: steps per round. The first step pays the lazy set-up (page
	// faults, pool spawn) and is counted in setup_s; the rest are timed.
	// diagEvery and auditEvery are the cadences of the flow diagnostics and
	// of the conserved-totals audit; a step that audits is an "aux op".
	steps, diagEvery, auditEvery int
	// window is the number of consecutive steps of one kind (plain or audited)
	// whose mean makes one latency sample; 0 or 1 samples every step. A single
	// 8 ms step on two tcp ranks is bimodal (NOISE.md): its median sits in the
	// trough between the modes and follows the host, a window's mean does not.
	window int
	// snapshot: warm-up steps that develop the field (set-up), then timed
	// write+read cycles.
	warmSteps, cycles int
	// jobs: timed jobs per client per round, steps per job.
	jobs, jobSteps int

	// roundSec is the measured cost of one round on the reference host.
	roundSec float64
	// reference marks the committed sizes: only they are compared against
	// reference.json (the smoke test shrinks the specs).
	reference bool
}

var specs = map[string]spec{
	"cloud32_node": {
		name: "cloud32_node", kind: solver, n: 32,
		ranks: [3]int{1, 1, 1}, blocks: [3]int{2, 2, 2}, workers: 2,
		steps: 13, diagEvery: 4, auditEvery: 4, roundSec: 5, reference: true,
	},
	"tiny8_tcp2": {
		name: "tiny8_tcp2", kind: solver, n: 8,
		ranks: [3]int{2, 1, 1}, blocks: [3]int{1, 2, 2}, workers: 1, tcp: true,
		steps: 281, diagEvery: 1, auditEvery: 5, window: 8, roundSec: 2.5, reference: true,
	},
	"snapshot32_io": {
		name: "snapshot32_io", kind: snapshot, n: 32,
		ranks: [3]int{2, 1, 1}, blocks: [3]int{1, 2, 2}, workers: 1,
		warmSteps: 6, cycles: 24, roundSec: 6.5, reference: true,
	},
	"service_jobs": {
		name: "service_jobs", kind: jobs, n: 8,
		ranks: [3]int{1, 1, 1}, blocks: [3]int{1, 1, 1}, workers: 1,
		jobs: 152, jobSteps: 2, roundSec: 1.05, reference: true,
	},
}

// roundsFor turns the measuring time into a round count. At least three, so
// that setup_s is a median of several set-ups.
func (sp spec) roundsFor(seconds int) int {
	return max(3, int(float64(seconds)/sp.roundSec+0.5))
}

func (sp spec) nRanks() int { return sp.ranks[0] * sp.ranks[1] * sp.ranks[2] }

// cells is the global cell count.
func (sp spec) cells() int {
	return sp.nRanks() * sp.blocks[0] * sp.blocks[1] * sp.blocks[2] * sp.n * sp.n * sp.n
}

// round is one set-up followed by a fixed amount of timed work.
type round struct {
	setupS float64   // start of the round to the first timed operation
	wallS  float64   // wall clock of the timed operations
	ops    int       // timed operations completed
	op     []float64 // ms per primary operation
	aux    []float64 // ms per secondary operation
	// totals is the final conserved-totals record of a solver round, jobs
	// the per-job timings of a service round.
	totals cluster.Totals
	jobs   []jobTiming
}

// round runs one round of the workload; rec is nil when tracing is off.
func (sp spec) round(e *env, idx int, rec *recorder) (round, error) {
	switch sp.kind {
	case solver:
		if rec != nil {
			return solverRoundTraced(sp, e, rec)
		}
		return solverRoundSim(sp, e)
	case snapshot:
		return snapshotRound(sp, e, rec)
	default:
		return jobSession(sp, e, idx, rec)
	}
}

// runEndToEnd is the --trace 0 mode: rounds with tracing off, reduced to the
// end-to-end metrics.
func runEndToEnd(sp spec, e *env) (values, error) {
	var rs []round
	for i := 0; i < e.rounds; i++ {
		r, err := sp.round(e, i, nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rs = append(rs, r)
		// Start every round from a collected heap, so that peak_rss_mb is
		// the peak of a round and not of how garbage happened to pile up
		// across rounds.
		runtime.GC()
	}
	v := reduce(rs)
	v["peak_rss_mb"] = peakRSSMB()
	if sp.tcp && !e.ref.covers(sp) {
		// No reference for this architecture: fall back to the transport
		// self-check, the same problem on the inproc transport must end on
		// bitwise equal totals. After the RSS reading, as it is not part of
		// the workload.
		in := sp
		in.tcp = false
		r, err := solverRoundSim(in, e)
		if err != nil {
			return nil, fmt.Errorf("inproc self-check: %w", err)
		}
		terr := sameTotals(r.totals, rs[0].totals)
		e.chk.ok(terr == nil, "%s: tcp and inproc totals differ: %v", sp.name, terr)
	}
	var ops, nOp, nAux int
	for _, r := range rs {
		ops, nOp, nAux = ops+r.ops, nOp+len(r.op), nAux+len(r.aux)
	}
	fmt.Fprintf(e.info, "%s: %d rounds, %d timed ops, %d op / %d aux latency samples\n",
		sp.name, len(rs), ops, nOp, nAux)
	for i, r := range rs {
		fmt.Fprintf(e.info, "  round %d: setup %.4g s, %.5g ops/s, op p50 %.5g ms, aux p50 %.5g ms\n",
			i, r.setupS, ratio(float64(r.ops), r.wallS), median(r.op), median(r.aux))
	}
	switch sp.kind {
	case solver:
		fmt.Fprintf(e.info, "cell_steps_per_s %.6g (%d cells)\n", v["ops_per_s"]*float64(sp.cells()), sp.cells())
	case snapshot:
		// One cycle makes p, Γ and the full 7-quantity state durable.
		rawMB := float64(sp.cells()) * 4 * 9 / 1e6
		fmt.Fprintf(e.info, "snapshot_mb_per_s %.6g  restore_mb_per_s %.6g (%.1f raw MB per cycle)\n",
			rawMB/(v["op_ms_p50"]/1e3), rawMB/(v["aux_ms_p50"]/1e3), rawMB)
	}
	return v, nil
}

// reduce turns rounds into the end-to-end metrics: medians over rounds for
// set-up and throughput, percentiles over the pooled latency samples.
func reduce(rs []round) values {
	var setups, rates, op, aux []float64
	for _, r := range rs {
		setups = append(setups, r.setupS)
		rates = append(rates, ratio(float64(r.ops), r.wallS))
		op = append(op, r.op...)
		aux = append(aux, r.aux...)
	}
	return values{
		"setup_s":    median(setups),
		"ops_per_s":  median(rates),
		"op_ms_p50":  median(op),
		"aux_ms_p50": median(aux),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
