package main

import (
	"fmt"
	"math"
	"sort"
)

// decl declares one metric: the name and unit it is printed with and the
// direction in which it improves. BENCHMARK.json lists exactly these; the
// smoke test holds the two in step.
type decl struct {
	name, unit, better string
}

// endToEnd is printed by every workload with --trace 0. The names are shared
// so that one BENCHMARK.json fits all four workloads; README.md says what an
// "op" and an "aux op" are on each.
var endToEnd = []decl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"aux_ms_p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var coders = []string{"zlib", "rle", "sig", "huff"}

// traceLayers are the layers the traced pass of a workload splits its wall
// clock over. core, grid and node share one entry: seen from outside they
// are the pool's busy time, which no public counter splits further.
var traceLayers = []string{
	"scenario", "cluster", "core_node", "mpi", "compress", "dump",
	"checkpoint", "sim", "service", "check",
}

// perLayer is printed by every workload with --trace 1.
var perLayer = func() []decl {
	d := []decl{
		// core: single-thread kernel calls on a loaded lab of the workload's
		// block size.
		{"core.rhs_ns_per_cell", "ns", "lower"},
		{"core.fused_ns_per_cell", "ns", "lower"},
		{"core.rhs_vec_ns_per_cell", "ns", "lower"},
		{"core.update_ns_per_value", "ns", "lower"},
		{"core.sos_ns_per_cell", "ns", "lower"},
		{"core.rhs_gflops", "GFLOP/s", "higher"},
		{"core.rhs_flop_per_byte", "FLOP/B", "higher"},
		{"core.rhs_roofline_frac", "ratio", "higher"},
		{"core.rhs_allocs_per_call", "count", "lower"},
		// grid
		{"grid.lab_load_ns_per_cell", "ns", "lower"},
		{"grid.pack_face_us", "us", "lower"},
		// node
		{"node.busy_share", "ratio", "higher"},
		{"node.parallel_efficiency", "ratio", "higher"},
		{"node.rhs_stage_ms", "ms", "lower"},
		{"node.dispatch_us_per_task", "us", "lower"},
		{"node.tasks_per_step", "count", "lower"},
		// cluster: two ranks, hand-driven step loop
		{"cluster.initialize_ms", "ms", "lower"},
		{"cluster.maxdt_ms", "ms", "lower"},
		{"cluster.rkstep_ms", "ms", "lower"},
		{"cluster.ghost_ms_per_step", "ms", "lower"},
		{"cluster.halo_wait_ms_per_step", "ms", "lower"},
		{"cluster.diagnose_ms", "ms", "lower"},
		{"cluster.totals_ms", "ms", "lower"},
		{"cluster.halo_msgs_per_step", "count", "lower"},
		{"cluster.halo_bytes_per_step", "count", "lower"},
		{"cluster.pipelined_over_staged", "ratio", "lower"},
		// mpi + transport
		{"mpi.pingpong_us_p50.inproc", "us", "lower"},
		{"mpi.pingpong_us_p50.tcp", "us", "lower"},
		{"mpi.allreduce_us_p50.inproc", "us", "lower"},
		{"mpi.allreduce_us_p50.tcp", "us", "lower"},
		{"mpi.burst_mb_per_s.tcp", "MB/s", "higher"},
		{"transport.tcp_over_inproc", "ratio", "lower"},
		{"transport.bytes_sent_per_step", "B", "lower"},
		{"transport.retransmits", "count", "lower"},
		{"transport.reconnects", "count", "lower"},
		// wavelet + compress
		{"wavelet.fwt_ns_per_cell", "ns", "lower"},
	}
	for _, c := range coders {
		d = append(d,
			decl{"compress.mb_per_s." + c, "MB/s", "higher"},
			decl{"compress.decompress_mb_per_s." + c, "MB/s", "higher"},
			decl{"compress.ratio." + c, "ratio", "higher"})
	}
	d = append(d,
		decl{"compress.enc_imbalance", "ratio", "lower"},
		decl{"compress.dec_share", "ratio", "lower"},
		decl{"compress.enc_share", "ratio", "lower"},
		// dump + checkpoint
		decl{"dump.write_ms", "ms", "lower"},
		decl{"dump.stream_ms", "ms", "lower"},
		decl{"dump.read_ms", "ms", "lower"},
		decl{"dump.file_bytes", "count", "lower"},
		decl{"checkpoint.write_mb_per_s", "MB/s", "higher"},
		decl{"checkpoint.restore_mb_per_s", "MB/s", "higher"},
		decl{"checkpoint.file_bytes", "count", "lower"},
		// sim + scenario
		decl{"sim.unattributed_share", "ratio", "lower"},
		decl{"sim.first_step_over_median", "ratio", "lower"},
		decl{"scenario.build_ms", "ms", "lower"},
		// service: a short closed-loop session with the service_jobs spec
		decl{"service.submit_ms_p50", "ms", "lower"},
		decl{"service.queue_wait_ms_p50", "ms", "lower"},
		decl{"service.build_ms_p50", "ms", "lower"},
		decl{"service.run_ms_p50", "ms", "lower"},
		decl{"service.finish_ms_p50", "ms", "lower"},
		decl{"service.event_lag_ms_p50", "ms", "lower"},
		decl{"service.events_per_job", "count", "lower"},
		decl{"service.rejected", "count", "lower"},
		// Demoted from the end-to-end metrics (NOISE.md): the primary
		// operation's p90 over the untraced round of the traced run.
		decl{"op_ms_p90", "ms", "lower"},
		// trace: the workload's own traced pass
		decl{"trace.closure_share", "ratio", "higher"},
		decl{"trace.overhead_share", "ratio", "lower"})
	for _, l := range traceLayers {
		d = append(d, decl{"trace.share." + l, "ratio", "lower"})
	}
	return d
}()

// values collects measured metric values by name.
type values map[string]float64

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs the measured values with their declarations. Every declared
// metric must have been measured, be finite, and nothing undeclared may be
// left over: a metric that silently disappears would read as "no change".
func emit(decls []decl, v values) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	return out, nil
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
