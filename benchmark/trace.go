package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side of the
// layer's public API. Names are "<layer>.<operation>".
type span struct {
	name       string
	start, end time.Duration // since the recorder's start
	parent     int           // index of the causing span, -1 for the root
	// synthetic spans are not timed calls: their duration comes from a
	// public counter of the layer (pool busy time, halo wait, encoder
	// worker times) read before and after the parent call, and they are
	// laid out one after another from the parent's start.
	synthetic bool
	fill      time.Duration // where the next synthetic child starts
}

// recorder keeps the spans of one traced workload pass in memory; they are
// written out when the pass ends. Only one goroutine records at a time (rank
// 0, client 0), so there is no lock. A nil recorder records nothing, which
// is how tracing is turned off.
type recorder struct {
	run   string // run id shared by every span: the workload name
	t0    time.Time
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.spans = append(r.spans, span{name: name, start: now, end: now, parent: parent, fill: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.t0)
}

// between records a finished span from two clock readings (service events
// carry the server's own timestamps).
func (r *recorder) between(parent int, name string, from, to time.Time) {
	if r == nil || !to.After(from) {
		return
	}
	r.spans = append(r.spans, span{name: name, start: from.Sub(r.t0), end: to.Sub(r.t0), parent: parent})
}

// child adds a synthetic child of duration d to a finished span, clipped to
// the part of the parent no earlier child covers: time a counter reports
// beyond that overlapped other work and is not on the blocking path.
func (r *recorder) child(parent int, name string, d time.Duration) {
	if r == nil {
		return
	}
	p := &r.spans[parent]
	d = min(d, p.end-p.fill)
	if d <= 0 {
		return
	}
	r.spans = append(r.spans, span{name: name, start: p.fill, end: p.fill + d, parent: parent, synthetic: true})
	p.fill += d
}

// rest gives whatever no child covers to a synthetic child.
func (r *recorder) rest(parent int, name string) {
	if r != nil {
		r.child(parent, name, r.spans[parent].end-r.spans[parent].fill)
	}
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		self[layerOf(s.name)] += max(s.end-s.start-covered[i], 0)
	}
	return self
}

// shares reports each trace layer's self time as a share of the root span,
// and the closure: the share of the root its direct children cover.
func (r *recorder) shares(root int) values {
	wall := r.spans[root].end - r.spans[root].start
	self := r.selfTimes()
	v := values{"trace.closure_share": 1 - ratio(float64(self[layerOf(r.spans[root].name)]), float64(wall))}
	for _, l := range traceLayers {
		v["trace.share."+l] = ratio(float64(self[l]), float64(wall))
	}
	return v
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// ui.perfetto.dev): complete events, microseconds, nesting by time.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: 1,
			Args: map[string]any{"run": r.run, "id": i, "parent": s.parent, "synthetic": s.synthetic},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
