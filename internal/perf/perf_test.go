package perf

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKernelStats(t *testing.T) {
	m := NewMonitor()
	k := m.Kernel("RHS")
	k.Record(Sample{Duration: 100 * time.Millisecond, FLOPs: 1e9, Bytes: 1e8})
	k.Record(Sample{Duration: 300 * time.Millisecond, FLOPs: 3e9, Bytes: 3e8})
	st := k.Stats()
	if st.N != 2 {
		t.Fatalf("N = %d", st.N)
	}
	if math.Abs(st.GFLOPS()-10) > 1e-9 {
		t.Errorf("GFLOPS = %g, want 10", st.GFLOPS())
	}
	if math.Abs(st.Intensity()-10) > 1e-9 {
		t.Errorf("Intensity = %g, want 10", st.Intensity())
	}
	if st.Min != 100*time.Millisecond || st.Max != 300*time.Millisecond {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
}

func TestImbalanceFormula(t *testing.T) {
	k := &Kernel{name: "x"}
	k.Record(Sample{Duration: 100 * time.Millisecond})
	k.Record(Sample{Duration: 200 * time.Millisecond})
	k.Record(Sample{Duration: 300 * time.Millisecond})
	// (tmax - tmin)/tavg = (0.3-0.1)/0.2 = 1.
	if got := k.Stats().Imbalance(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Imbalance = %g, want 1", got)
	}
}

func TestShares(t *testing.T) {
	m := NewMonitor()
	m.Kernel("RHS").Record(Sample{Duration: 900 * time.Millisecond})
	m.Kernel("UP").Record(Sample{Duration: 100 * time.Millisecond})
	if s := m.Share("RHS"); math.Abs(s-0.9) > 1e-9 {
		t.Errorf("RHS share = %g", s)
	}
	if s := m.Share("UP"); math.Abs(s-0.1) > 1e-9 {
		t.Errorf("UP share = %g", s)
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := NewMonitor()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Kernel("K").Record(Sample{Duration: time.Millisecond, FLOPs: 1})
			}
		}()
	}
	wg.Wait()
	if st := m.Kernel("K").Stats(); st.N != 800 || st.TotalFLOP != 800 {
		t.Errorf("stats after concurrent recording: %+v", st)
	}
}

func TestReportContainsKernels(t *testing.T) {
	m := NewMonitor()
	m.Kernel("RHS").Record(Sample{Duration: time.Second, FLOPs: 5e9, Bytes: 1e8})
	r := m.Report()
	if !strings.Contains(r, "RHS") || !strings.Contains(r, "5.000") {
		t.Errorf("report missing content:\n%s", r)
	}
}

func TestResetAndNames(t *testing.T) {
	m := NewMonitor()
	m.Kernel("B").Record(Sample{Duration: time.Millisecond})
	m.Kernel("A").Record(Sample{Duration: time.Millisecond})
	names := m.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
	m.Kernel("A").Reset()
	if st := m.Kernel("A").Stats(); st.N != 0 {
		t.Errorf("after reset N = %d", st.N)
	}
}

func TestRecordSince(t *testing.T) {
	k := &Kernel{name: "x"}
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	k.RecordSince(start, 100, 10)
	st := k.Stats()
	if st.Total < 2*time.Millisecond {
		t.Errorf("recorded duration %v too small", st.Total)
	}
	if st.TotalFLOP != 100 || st.TotalByte != 10 {
		t.Errorf("counts: %+v", st)
	}
}

// TestRunningStatsMatchSamples: 10⁵ records folded into running totals give
// exactly the Stats of the per-sample formula over the retained samples,
// and a record allocates nothing.
func TestRunningStatsMatchSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := &Kernel{name: "RHS"}
	samples := make([]Sample, 100_000)
	for i := range samples {
		samples[i] = Sample{
			Duration: time.Duration(rng.Int63n(int64(time.Millisecond))),
			FLOPs:    rng.Int63n(1 << 30),
			Bytes:    rng.Int63n(1 << 28),
		}
		k.Record(samples[i])
	}
	want := Stats{Name: "RHS", N: len(samples)}
	for i, s := range samples {
		want.Total += s.Duration
		want.TotalFLOP += s.FLOPs
		want.TotalByte += s.Bytes
		if i == 0 || s.Duration < want.Min {
			want.Min = s.Duration
		}
		if s.Duration > want.Max {
			want.Max = s.Duration
		}
	}
	if got := k.Stats(); got != want {
		t.Errorf("running stats %+v, per-sample formula %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(1000, func() { k.Record(samples[0]) }); allocs != 0 {
		t.Errorf("Record allocates %v times per call, want 0", allocs)
	}
}
