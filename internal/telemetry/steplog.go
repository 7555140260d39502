package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// StepRecord is one structured step-log entry: the quantities the paper
// tracks per step (t, dt, per-kernel time, imbalance, dump bitrate) plus
// the Figure 5 diagnostics when they were computed that step.
type StepRecord struct {
	Step   int     `json:"step"`
	Time   float64 `json:"t"`
	DT     float64 `json:"dt"`
	WallMS float64 `json:"wall_ms"`
	// KernelMS is rank 0's wall-clock time per phase during this step, in
	// milliseconds: each perf kernel plus ghost_exchange and halo_wait
	// (which overlaps RHS/RHSUP, so the phases do not add up to WallMS).
	KernelMS map[string]float64 `json:"kernel_ms,omitempty"`
	// Imbalance is the cross-rank step-time statistic max/avg − 1.
	Imbalance float64 `json:"imbalance,omitempty"`
	// DumpRates maps dumped quantity to its compression rate (raw:encoded).
	DumpRates map[string]float64 `json:"dump_rates,omitempty"`
	// DumpMBps is the encoded dump bitrate in MB/s when this step dumped.
	DumpMBps float64 `json:"dump_mbps,omitempty"`

	// Figure 5 diagnostics, present on DiagEvery steps.
	HasDiag       bool    `json:"has_diag,omitempty"`
	MaxPressure   float64 `json:"max_p,omitempty"`
	WallPressure  float64 `json:"wall_p,omitempty"`
	KineticEnergy float64 `json:"kinetic_energy,omitempty"`
	EquivRadius   float64 `json:"equiv_radius,omitempty"`

	// Conservation-audit totals (∫dV of the conserved quantities), present
	// on AuditEvery steps; the verification subsystem tracks their drift.
	// The vector and range fields are slices (x, y, z and min, max) so
	// they are absent, not zero-filled, on unaudited steps.
	HasTotals   bool      `json:"has_totals,omitempty"`
	TotalMass   float64   `json:"total_mass,omitempty"`
	TotalMom    []float64 `json:"total_momentum,omitempty"`
	TotalEnergy float64   `json:"total_energy,omitempty"`
	GammaRange  []float64 `json:"gamma_range,omitempty"`
	PiRange     []float64 `json:"pi_range,omitempty"`
	NonFinite   int       `json:"non_finite,omitempty"`
}

// StepLogger writes StepRecords as JSON Lines. A nil *StepLogger discards
// records. The logger is safe for concurrent use.
type StepLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
	c   io.Closer
}

// NewStepLogger logs to w; if w is also an io.Closer, Close closes it.
func NewStepLogger(w io.Writer) *StepLogger {
	l := &StepLogger{enc: json.NewEncoder(w)}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// Log appends one record as a JSON line.
func (l *StepLogger) Log(rec StepRecord) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc.Encode(rec)
}

// Close closes the underlying writer when it is closable.
func (l *StepLogger) Close() error {
	if l == nil || l.c == nil {
		return nil
	}
	return l.c.Close()
}
