// Package perf is the reproduction's stand-in for the IBM Hardware
// Performance Monitor (HPM) the paper uses to report weighted GFLOP/s.
//
// Kernels declare their floating-point operation count and off-chip byte
// traffic analytically (the counts are validated against the instruction
// audit in internal/core); perf combines those with wall-clock timings into
// GFLOP/s, operational intensity (FLOP/B) and peak fractions, and computes
// the work-imbalance statistic (tmax-tmin)/tavg used by Table 4.
package perf

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sample is one timed execution of a kernel with its operation counts.
type Sample struct {
	Duration time.Duration
	FLOPs    int64 // floating point operations performed
	Bytes    int64 // compulsory off-chip byte traffic
}

// Kernel keeps the running totals of one named compute kernel (RHS, DT,
// UP, ...): a Record costs constant time and no memory however long the
// run, so a monitor read every step stays cheap.
type Kernel struct {
	mu   sync.Mutex
	name string
	st   Stats // totals so far; Stats fills in the name
}

// Name returns the kernel's name.
func (k *Kernel) Name() string { return k.name }

// Record adds one sample to the totals.
func (k *Kernel) Record(s Sample) {
	k.mu.Lock()
	st := &k.st
	if st.N == 0 || s.Duration < st.Min {
		st.Min = s.Duration
	}
	if s.Duration > st.Max {
		st.Max = s.Duration
	}
	st.N++
	st.Total += s.Duration
	st.TotalFLOP += s.FLOPs
	st.TotalByte += s.Bytes
	k.mu.Unlock()
}

// RecordSince is shorthand for recording a sample timed from start.
func (k *Kernel) RecordSince(start time.Time, flops, bytes int64) {
	k.Record(Sample{Duration: time.Since(start), FLOPs: flops, Bytes: bytes})
}

// Stats summarizes the accumulated samples of a kernel.
type Stats struct {
	Name      string
	N         int
	Total     time.Duration
	TotalFLOP int64
	TotalByte int64
	Min, Max  time.Duration
}

// GFLOPS returns throughput in billions of floating point ops per second.
func (s Stats) GFLOPS() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.TotalFLOP) / s.Total.Seconds() / 1e9
}

// Intensity returns the operational intensity in FLOP/Byte.
func (s Stats) Intensity() float64 {
	if s.TotalByte == 0 {
		return 0
	}
	return float64(s.TotalFLOP) / float64(s.TotalByte)
}

// Imbalance returns (tmax - tmin)/tavg over the samples, the statistic the
// paper reports for the compression stages (Table 4). It is zero when fewer
// than two samples exist.
func (s Stats) Imbalance() float64 {
	if s.N < 2 || s.Total <= 0 {
		return 0
	}
	avg := s.Total.Seconds() / float64(s.N)
	return (s.Max.Seconds() - s.Min.Seconds()) / avg
}

// Stats returns the summary of all recorded samples. With zero samples
// every field but the name is zero — Min and Max in particular never carry
// garbage.
func (k *Kernel) Stats() Stats {
	k.mu.Lock()
	defer k.mu.Unlock()
	st := k.st
	st.Name = k.name
	return st
}

// Reset discards all samples.
func (k *Kernel) Reset() {
	k.mu.Lock()
	k.st = Stats{}
	k.mu.Unlock()
}

// Monitor is a registry of kernels, one per compute stage.
type Monitor struct {
	mu      sync.Mutex
	kernels map[string]*Kernel
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{kernels: make(map[string]*Kernel)}
}

// Kernel returns the kernel with the given name, creating it if needed.
func (m *Monitor) Kernel(name string) *Kernel {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.kernels[name]
	if !ok {
		k = &Kernel{name: name}
		m.kernels[name] = k
	}
	return k
}

// Names returns the registered kernel names, sorted.
func (m *Monitor) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.kernels))
	for n := range m.kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalDuration sums the wall-clock time over all kernels.
func (m *Monitor) TotalDuration() time.Duration {
	var total time.Duration
	for _, n := range m.Names() {
		total += m.Kernel(n).Stats().Total
	}
	return total
}

// Share returns kernel time / total time across all kernels, in [0,1].
func (m *Monitor) Share(name string) float64 {
	total := m.TotalDuration()
	if total <= 0 {
		return 0
	}
	return m.Kernel(name).Stats().Total.Seconds() / total.Seconds()
}

// Report renders a fixed-width table of all kernels.
func (m *Monitor) Report() string {
	out := fmt.Sprintf("%-12s %10s %12s %12s %10s %8s\n",
		"kernel", "calls", "time", "GFLOP/s", "FLOP/B", "share")
	total := m.TotalDuration()
	for _, n := range m.Names() {
		st := m.Kernel(n).Stats()
		share := 0.0
		if total > 0 {
			share = st.Total.Seconds() / total.Seconds()
		}
		out += fmt.Sprintf("%-12s %10d %12s %12.3f %10.2f %7.1f%%\n",
			st.Name, st.N, st.Total.Round(time.Microsecond), st.GFLOPS(), st.Intensity(), 100*share)
	}
	return out
}
