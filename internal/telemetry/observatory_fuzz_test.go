package telemetry

import "testing"

// FuzzDecodeBatch feeds arbitrary bytes through the observatory's wire
// decoder into the collector of a 2-rank world that already holds both
// ranks' samples of steps 1-3, as rank 0 does with every remote flush.
// Malformed batches must surface as decode errors, and no accepted batch
// may panic the collector or make a report row count more ranks than the
// world holds.
func FuzzDecodeBatch(f *testing.F) {
	const ranks = 2
	f.Add(RankBatch{
		Rank:     1,
		Steps:    []PhaseSample{{Step: 3, WallMS: 12.5, PhaseMS: map[string]float64{"RHSUP": 10, "halo_wait": 2.5}}},
		Spans:    []SpanRecord{{Name: "RHSUP", Rank: 1, Worker: 2, StartNS: 1000, DurNS: 500}},
		Counters: map[string]float64{"mpcf_net_bytes_sent": 4096},
	}.Encode())
	f.Add(RankBatch{Rank: 7, Steps: []PhaseSample{{Step: 1, WallMS: 1}}}.Encode())
	f.Add(RankBatch{Rank: -1, Steps: []PhaseSample{{Step: 1, WallMS: 1}}, Counters: map[string]float64{"x": 1}}.Encode())
	f.Add([]byte(`{"rank":1,"steps":[{"step":-5,"wall_ms":1e308,"phase_ms":{"":-1}}]}`))
	f.Add([]byte("{nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return // a corrupt batch is allowed to fail, not to panic
		}
		a := NewAggregator(ranks)
		for step := 1; step <= 3; step++ {
			for rank := range ranks {
				a.AddSample(rank, PhaseSample{Step: step, WallMS: 1, PhaseMS: map[string]float64{"RHSUP": 1}})
			}
		}
		a.AddBatch(b)
		rep := a.Report()
		for _, row := range rep.Steps {
			if row.Ranks > ranks {
				t.Fatalf("step %d reported by %d ranks in a %d-rank world", row.Step, row.Ranks, ranks)
			}
		}
		for p, st := range rep.Run {
			if st.Ranks > ranks {
				t.Fatalf("phase %q reported by %d ranks in a %d-rank world", p, st.Ranks, ranks)
			}
		}
	})
}
