package telemetry

// The cluster-wide performance observatory: every rank streams span batches
// and per-phase step timings to a collector on rank 0, which aligns remote
// clocks (clocksync.go), merges all spans into one Chrome trace with one
// track group per rank, and accumulates the paper's Table-4 statistic —
// per-phase max/avg-1 imbalance across ranks — with straggler attribution.
// The transport is the mpi layer's stream-tag channel, flushed at step
// boundaries (internal/sim/observe.go), so the plane never perturbs the
// halo tag epochs.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// PhaseSample is one rank's per-phase wall-clock accounting of one step:
// the solver phases of the paper's time-step breakdown (DT, RHS/RHSUP, UP,
// ghost_exchange, halo_wait, FWT/ENC/IO on dump steps), in milliseconds.
type PhaseSample struct {
	Step    int                `json:"step"`
	WallMS  float64            `json:"wall_ms"`
	PhaseMS map[string]float64 `json:"phase_ms"`
}

// RankBatch is the unit one rank ships to the collector at a step-boundary
// flush: its new phase samples, the spans drained from its tracer since
// the previous flush (distributed runs only — in-process runs share one
// tracer), and a scalar counter snapshot (net counters, pool gauges).
type RankBatch struct {
	Rank     int                `json:"rank"`
	Steps    []PhaseSample      `json:"steps,omitempty"`
	Spans    []SpanRecord       `json:"spans,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Encode serializes the batch for the wire.
func (b RankBatch) Encode() []byte {
	data, err := json.Marshal(b)
	if err != nil {
		// Every field is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("telemetry: encode rank batch: %v", err))
	}
	return data
}

// DecodeBatch parses a batch encoded with Encode.
func DecodeBatch(data []byte) (RankBatch, error) {
	var b RankBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("telemetry: decode rank batch: %w", err)
	}
	return b, nil
}

// ScalarSnapshot flattens a registry's counters and gauges into a plain
// float map (histograms are skipped), the counter payload of a RankBatch.
func ScalarSnapshot(reg *Registry) map[string]float64 {
	snap := reg.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	out := make(map[string]float64, len(snap))
	for k, v := range snap {
		switch x := v.(type) {
		case int64:
			out[k] = float64(x)
		case float64:
			out[k] = x
		}
	}
	return out
}

// waitPhases are the phases that represent time a rank spent waiting on its
// peers rather than computing; the straggler attribution names the largest.
var waitPhases = []string{"halo_wait", "ghost_exchange"}

// Aggregator is the rank-0 collector state: remote spans re-based onto the
// local clock, per-(step, rank) phase samples, per-rank counter snapshots
// and clock offsets. Safe for concurrent use (the crash-flush path may
// write artifacts from a signal goroutine while the step loop feeds it).
type Aggregator struct {
	mu       sync.Mutex
	ranks    int
	offsets  []int64 // peer tracer clock minus rank-0 tracer clock, ns
	spans    []SpanRecord
	steps    map[int]map[int]PhaseSample // step -> rank -> sample
	counters []map[string]float64
	missing  int // expected-but-absent rank batches (peer death)
	limit    int
	dropped  int64
}

// NewAggregator returns a collector for a world of the given size.
func NewAggregator(ranks int) *Aggregator {
	if ranks < 1 {
		ranks = 1
	}
	return &Aggregator{
		ranks:    ranks,
		offsets:  make([]int64, ranks),
		steps:    make(map[int]map[int]PhaseSample),
		counters: make([]map[string]float64, ranks),
		limit:    defaultSpanLimit,
	}
}

// SetClockOffset records the estimated offset (peer tracer clock minus
// rank-0 tracer clock) used to re-base rank's spans at ingest.
func (a *Aggregator) SetClockOffset(rank int, offsetNS int64) {
	if a == nil || rank < 0 || rank >= a.ranks {
		return
	}
	a.mu.Lock()
	a.offsets[rank] = offsetNS
	a.mu.Unlock()
}

// AddSample records one rank's phase accounting of one step.
func (a *Aggregator) AddSample(rank int, s PhaseSample) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.addSampleLocked(rank, s)
}

func (a *Aggregator) addSampleLocked(rank int, s PhaseSample) {
	byRank := a.steps[s.Step]
	if byRank == nil {
		byRank = make(map[int]PhaseSample, a.ranks)
		a.steps[s.Step] = byRank
	}
	byRank[rank] = s
}

// AddBatch ingests one remote rank's flush: phase samples verbatim, spans
// re-based from the peer's tracer clock onto rank 0's (StartNS - offset),
// counters replacing the previous snapshot. Samples and counters of a rank
// outside the world are dropped.
func (a *Aggregator) AddBatch(b RankBatch) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	inWorld := b.Rank >= 0 && b.Rank < a.ranks
	if inWorld {
		for _, s := range b.Steps {
			a.addSampleLocked(b.Rank, s)
		}
	}
	if len(b.Spans) > 0 {
		var off int64
		if inWorld {
			off = a.offsets[b.Rank]
		}
		for _, rec := range b.Spans {
			if len(a.spans) >= a.limit {
				a.dropped += int64(len(b.Spans))
				break
			}
			rec.StartNS -= off
			a.spans = append(a.spans, rec)
		}
	}
	if b.Counters != nil && inWorld {
		a.counters[b.Rank] = b.Counters
	}
}

// MarkMissing records that an expected rank batch never arrived (a dead
// peer); the imbalance math proceeds over the ranks that did report.
func (a *Aggregator) MarkMissing(rank, step int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.missing++
	a.mu.Unlock()
}

// Dropped reports spans discarded after the merge buffer filled.
func (a *Aggregator) Dropped() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// MergedTrace builds the single cluster-wide Chrome trace: the local spans
// (rank 0's tracer snapshot — in an in-process world that tracer already
// holds every rank's track) merged with all ingested remote spans, which
// were clock-aligned at AddBatch time. One track group (pid) per rank.
func (a *Aggregator) MergedTrace(local []SpanRecord) TraceFile {
	if a == nil {
		return BuildTrace(local)
	}
	a.mu.Lock()
	merged := make([]SpanRecord, 0, len(local)+len(a.spans))
	merged = append(merged, local...)
	merged = append(merged, a.spans...)
	a.mu.Unlock()
	return BuildTrace(merged)
}

// PhaseStat is one phase's cross-rank statistic: the Table-4 imbalance
// percentage max/avg-1 plus the contributing extremes.
type PhaseStat struct {
	AvgMS     float64 `json:"avg_ms"`
	MaxMS     float64 `json:"max_ms"`
	MaxRank   int     `json:"max_rank"`
	Imbalance float64 `json:"imbalance_pct"` // 100*(max/avg - 1); 0 when avg is 0 or one rank
	Ranks     int     `json:"ranks"`         // ranks that reported this phase
}

// StepImbalance is one step's cross-rank breakdown.
type StepImbalance struct {
	Step          int                  `json:"step"`
	Ranks         int                  `json:"ranks"` // ranks that reported this step
	WallImbalance float64              `json:"wall_imbalance_pct"`
	Straggler     int                  `json:"straggler"`
	StragglerWait string               `json:"straggler_wait,omitempty"`
	Phases        map[string]PhaseStat `json:"phases"`
}

// ImbalanceReport is the cluster imbalance report in the shape of the
// paper's Table 4: per-phase max/avg-1 percentages per step and aggregated
// over the run, with straggler attribution.
type ImbalanceReport struct {
	Ranks          int `json:"ranks"`
	StepsObserved  int `json:"steps_observed"`
	MissingBatches int `json:"missing_batches"`
	FirstStep      int `json:"first_step"`
	LastStep       int `json:"last_step"`
	// Run aggregates each phase's per-rank cumulative time over the whole
	// observed window.
	Run map[string]PhaseStat `json:"run"`
	// Steps holds the per-step rows in ascending step order.
	Steps []StepImbalance `json:"steps"`
	// Straggler is the rank with the largest cumulative step wall time;
	// StragglerWait names its dominant wait phase and the per-step average
	// milliseconds it spent there.
	Straggler          int     `json:"straggler"`
	StragglerExcessPct float64 `json:"straggler_excess_pct"` // its wall time over the rank average, percent
	StragglerWait      string  `json:"straggler_wait,omitempty"`
	StragglerWaitAvgMS float64 `json:"straggler_wait_avg_ms,omitempty"`
	// Counters is the last counter snapshot per rank (distributed runs).
	Counters map[int]map[string]float64 `json:"counters,omitempty"`
}

// maxAvg computes a PhaseStat over per-rank values.
func maxAvg(values map[int]float64) PhaseStat {
	st := PhaseStat{MaxRank: -1}
	if len(values) == 0 {
		return st
	}
	var sum float64
	ranks := make([]int, 0, len(values))
	for r := range values {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks) // deterministic MaxRank on ties
	for _, r := range ranks {
		v := values[r]
		sum += v
		if st.MaxRank < 0 || v > st.MaxMS {
			st.MaxMS = v
			st.MaxRank = r
		}
	}
	st.Ranks = len(values)
	st.AvgMS = sum / float64(len(values))
	if len(values) > 1 {
		st.Imbalance = 100 * Imbalance(st.MaxMS, st.AvgMS)
	}
	return st
}

// Imbalance is the one cross-rank imbalance definition, max/avg − 1 (0
// when avg is not positive): a ratio for the step statistic and the
// rebalancer, a percentage in the observatory.
func Imbalance(max, avg float64) float64 {
	if !(avg > 0) { // also an empty set's NaN average
		return 0
	}
	return max/avg - 1
}

// dominantWait returns the wait phase with the largest value in phases,
// falling back to the largest phase overall when no wait phase is present.
func dominantWait(phases map[string]float64) (string, float64) {
	best, bestV := "", 0.0
	for _, p := range waitPhases {
		if v := phases[p]; v > bestV {
			best, bestV = p, v
		}
	}
	if best != "" {
		return best, bestV
	}
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := phases[n]; v > bestV {
			best, bestV = n, v
		}
	}
	return best, bestV
}

// Report assembles the imbalance report from everything ingested so far.
func (a *Aggregator) Report() *ImbalanceReport {
	rep := &ImbalanceReport{
		Run:       map[string]PhaseStat{},
		Straggler: -1,
	}
	if a == nil {
		return rep
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rep.Ranks = a.ranks
	rep.MissingBatches = a.missing

	stepIDs := make([]int, 0, len(a.steps))
	for s := range a.steps {
		stepIDs = append(stepIDs, s)
	}
	sort.Ints(stepIDs)
	rep.StepsObserved = len(stepIDs)
	if len(stepIDs) > 0 {
		rep.FirstStep, rep.LastStep = stepIDs[0], stepIDs[len(stepIDs)-1]
	}

	// Per-rank cumulative sums over the run, per phase and wall.
	cumPhase := map[string]map[int]float64{}
	cumWall := map[int]float64{}
	cumWaits := map[int]map[string]float64{} // rank -> wait phase -> total
	for _, step := range stepIDs {
		byRank := a.steps[step]
		wall := map[int]float64{}
		phaseVals := map[string]map[int]float64{}
		for r, s := range byRank {
			wall[r] = s.WallMS
			cumWall[r] += s.WallMS
			for p, ms := range s.PhaseMS {
				if phaseVals[p] == nil {
					phaseVals[p] = map[int]float64{}
				}
				phaseVals[p][r] = ms
				if cumPhase[p] == nil {
					cumPhase[p] = map[int]float64{}
				}
				cumPhase[p][r] += ms
			}
			if cumWaits[r] == nil {
				cumWaits[r] = map[string]float64{}
			}
			for _, wp := range waitPhases {
				cumWaits[r][wp] += s.PhaseMS[wp]
			}
		}
		wallStat := maxAvg(wall)
		row := StepImbalance{
			Step:          step,
			Ranks:         len(byRank),
			WallImbalance: wallStat.Imbalance,
			Straggler:     wallStat.MaxRank,
			Phases:        map[string]PhaseStat{},
		}
		for p, vals := range phaseVals {
			row.Phases[p] = maxAvg(vals)
		}
		if s, ok := byRank[wallStat.MaxRank]; ok {
			row.StragglerWait, _ = dominantWait(s.PhaseMS)
		}
		rep.Steps = append(rep.Steps, row)
	}

	for p, vals := range cumPhase {
		rep.Run[p] = maxAvg(vals)
	}
	wallStat := maxAvg(cumWall)
	rep.Straggler = wallStat.MaxRank
	rep.StragglerExcessPct = wallStat.Imbalance
	if rep.Straggler >= 0 && rep.StepsObserved > 0 {
		if waits := cumWaits[rep.Straggler]; waits != nil {
			name, total := dominantWait(waits)
			if name != "" {
				rep.StragglerWait = name
				rep.StragglerWaitAvgMS = total / float64(rep.StepsObserved)
			}
		}
	}

	for r, c := range a.counters {
		if c == nil {
			continue
		}
		if rep.Counters == nil {
			rep.Counters = map[int]map[string]float64{}
		}
		rep.Counters[r] = c
	}
	return rep
}

// phaseOrder lists the well-known phases in the paper's presentation order;
// unknown phases follow alphabetically.
var phaseOrder = []string{
	"DT", "RHS", "UP", "RHSUP", "ghost_exchange", "halo_wait",
	"FWT", "ENC", "IO", "IO_WAVELET",
}

// orderedPhases returns the report's phase names, well-known ones first.
func orderedPhases(m map[string]PhaseStat) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range phaseOrder {
		if _, ok := m[p]; ok {
			out = append(out, p)
			seen[p] = true
		}
	}
	var rest []string
	for p := range m {
		if !seen[p] {
			rest = append(rest, p)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// WriteText renders the report as the human-readable Table-4-shaped table.
func (r *ImbalanceReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Cluster imbalance report — %d ranks, steps %d..%d (%d observed, %d rank-batches missing)\n",
		r.Ranks, r.FirstStep, r.LastStep, r.StepsObserved, r.MissingBatches); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %12s %12s %10s %6s\n", "phase", "avg ms", "max ms", "imb %", "rank")
	for _, p := range orderedPhases(r.Run) {
		st := r.Run[p]
		fmt.Fprintf(w, "%-16s %12.3f %12.3f %10.1f %6d\n",
			p, st.AvgMS, st.MaxMS, st.Imbalance, st.MaxRank)
	}
	if r.Straggler >= 0 {
		fmt.Fprintf(w, "straggler: rank %d — step wall %.1f%% above the rank average",
			r.Straggler, r.StragglerExcessPct)
		if r.StragglerWait != "" {
			fmt.Fprintf(w, "; dominant wait: %s (%.3f ms/step)", r.StragglerWait, r.StragglerWaitAvgMS)
		}
		fmt.Fprintln(w)
	}
	// The worst steps by wall imbalance, so "which step went sideways" has
	// an immediate answer.
	worst := append([]StepImbalance(nil), r.Steps...)
	sort.SliceStable(worst, func(i, j int) bool { return worst[i].WallImbalance > worst[j].WallImbalance })
	n := len(worst)
	if n > 5 {
		n = 5
	}
	if n > 0 && worst[0].WallImbalance > 0 {
		fmt.Fprintf(w, "worst steps by wall imbalance:")
		for _, s := range worst[:n] {
			if s.WallImbalance <= 0 {
				break
			}
			fmt.Fprintf(w, " step %d (%.1f%%, rank %d, %s)", s.Step, s.WallImbalance, s.Straggler, s.StragglerWait)
		}
		fmt.Fprintln(w)
	}
	if len(r.Counters) > 0 {
		ranks := make([]int, 0, len(r.Counters))
		for rk := range r.Counters {
			ranks = append(ranks, rk)
		}
		sort.Ints(ranks)
		for _, rk := range ranks {
			c := r.Counters[rk]
			names := make([]string, 0)
			for n := range c {
				if len(n) >= 9 && n[:9] == "mpcf_net_" {
					names = append(names, n)
				}
			}
			sort.Strings(names)
			if len(names) == 0 {
				continue
			}
			fmt.Fprintf(w, "rank %d net:", rk)
			for _, n := range names {
				fmt.Fprintf(w, " %s=%g", n[9:], c[n])
			}
			fmt.Fprintln(w)
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteJSON renders the report as indented JSON.
func (r *ImbalanceReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
