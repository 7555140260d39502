package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestStepLoggerNil(t *testing.T) {
	var l *StepLogger
	if err := l.Log(StepRecord{Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStepLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewStepLogger(&buf)
	recs := []StepRecord{
		{Step: 1, Time: 1e-6, DT: 1e-6, WallMS: 2.5,
			KernelMS: map[string]float64{"RHS": 2.0, "UP": 0.3}, Imbalance: 0.1},
		{Step: 2, Time: 2e-6, DT: 1e-6, WallMS: 2.4,
			DumpRates: map[string]float64{"p": 12.5}, DumpMBps: 80,
			HasDiag: true, MaxPressure: 1e7, EquivRadius: 0.2},
	}
	for _, r := range recs {
		if err := l.Log(r); err != nil {
			t.Fatal(err)
		}
	}
	sc := bufio.NewScanner(&buf)
	var got []StepRecord
	for sc.Scan() {
		var r StepRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line not valid JSON: %v", err)
		}
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(got))
	}
	if got[0].KernelMS["RHS"] != 2.0 || got[1].DumpRates["p"] != 12.5 || !got[1].HasDiag {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

// TestStepLoggerTotalsOnlyWhenAudited: an unaudited step carries no
// conservation totals at all (no zero-filled vectors a reader could take
// for real ones); an audited step carries every one of them.
func TestStepLoggerTotalsOnlyWhenAudited(t *testing.T) {
	var buf bytes.Buffer
	l := NewStepLogger(&buf)
	if err := l.Log(StepRecord{Step: 1, HasDiag: true, MaxPressure: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Log(StepRecord{Step: 2, HasTotals: true, TotalMass: 1,
		TotalMom: []float64{0.5, 0, 0}, TotalEnergy: 2,
		GammaRange: []float64{1.5, 2.5}, PiRange: []float64{0, 3}}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(lines))
	}
	keys := []string{"has_totals", "total_mass", "total_momentum", "total_energy",
		"gamma_range", "pi_range"}
	for i, want := range []bool{false, true} {
		var m map[string]any
		if err := json.Unmarshal(lines[i], &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, ok := m[k]; ok != want {
				t.Errorf("step %d: key %q present = %v, want %v (%s)", i+1, k, ok, want, lines[i])
			}
		}
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func TestStepLoggerConcurrent(t *testing.T) {
	var buf syncBuffer
	l := NewStepLogger(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := l.Log(StepRecord{Step: w*100 + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	buf.mu.Lock()
	defer buf.mu.Unlock()
	sc := bufio.NewScanner(&buf.buf)
	lines := 0
	for sc.Scan() {
		var r StepRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("interleaved/corrupt line: %v", err)
		}
		lines++
	}
	if lines != 800 {
		t.Fatalf("expected 800 lines, got %d", lines)
	}
}
