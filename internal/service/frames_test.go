package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cubism/internal/dump"
)

// frameKeys are the keys of a frame event's "frame" object on the wire.
var frameKeys = []string{"name", "step", "quantity", "t", "bytes", "data"}

// wireKeys returns the keys of the named object field of e's JSON form.
func wireKeys(t *testing.T, e Event, field string) map[string]json.RawMessage {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var outer map[string]json.RawMessage
	var inner map[string]json.RawMessage
	if err := json.Unmarshal(b, &outer); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(outer[field], &inner); err != nil {
		t.Fatalf("event %s has no %q object: %v", b, field, err)
	}
	return inner
}

// checkFrameKeys asserts a frame event carries exactly frameKeys.
func checkFrameKeys(t *testing.T, e Event) {
	t.Helper()
	keys := wireKeys(t, e, "frame")
	for _, k := range frameKeys {
		if _, ok := keys[k]; !ok {
			t.Fatalf("frame event lacks key %q: %v", k, keys)
		}
	}
	if len(keys) != len(frameKeys) {
		t.Fatalf("frame event keys %v, want exactly %v", keys, frameKeys)
	}
}

// TestInprocJobStreamsFrames: a job with dump_every set streams every
// compressed dump as a "frame" event whose payload is bitwise identical to
// the dump file in the job's artifact directory, and whose decoded fields
// match the file's decoded fields exactly. Each frame event carries exactly
// the frame-record keys.
func TestInprocJobStreamsFrames(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	spec := fastSpec("alice", "")
	spec.Params.DumpEvery = 2
	spec.Params.Encoder = "huff"
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 60*time.Second); st != StateSucceeded {
		t.Fatalf("job ended %s, want succeeded", st)
	}
	evs, done, err := j.EventsSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("terminal job's event stream not reported done")
	}
	frames := 0
	for _, e := range evs {
		if e.Type != "frame" {
			continue
		}
		frames++
		f := e.Frame
		if f == nil || f.Name == "" || len(f.Data) == 0 {
			t.Fatalf("frame event missing payload: %+v", f)
		}
		checkFrameKeys(t, e)
		if f.Bytes != len(f.Data) {
			t.Fatalf("frame %s claims %d bytes, carries %d", f.Name, f.Bytes, len(f.Data))
		}
		// The event payload must be the dump file, bit for bit.
		fileData, err := os.ReadFile(filepath.Join(j.Dir, f.Name))
		if err != nil {
			t.Fatalf("frame %s has no artifact twin: %v", f.Name, err)
		}
		if !bytes.Equal(f.Data, fileData) {
			t.Fatalf("frame %s differs from the on-disk dump (%d vs %d bytes)",
				f.Name, len(f.Data), len(fileData))
		}
		// And it must decode: same header, losslessly recoverable fields.
		hdr, comps, err := dump.Decode(f.Data)
		if err != nil {
			t.Fatalf("decoding frame %s: %v", f.Name, err)
		}
		if hdr.Step != f.Step || hdr.Quantity != f.Quantity || hdr.Time != f.Time {
			t.Fatalf("frame %s metadata %d/%s/%g disagrees with header %d/%s/%g",
				f.Name, f.Step, f.Quantity, f.Time, hdr.Step, hdr.Quantity, hdr.Time)
		}
		fileHdr, fileComps, err := dump.Decode(fileData)
		if err != nil {
			t.Fatalf("decoding dump file %s: %v", f.Name, err)
		}
		if fileHdr.Step != hdr.Step || fileHdr.Quantity != hdr.Quantity || fileHdr.Time != hdr.Time {
			t.Fatalf("frame and file headers disagree for %s", f.Name)
		}
		if len(comps) != len(fileComps) {
			t.Fatalf("frame decodes to %d rank payloads, file to %d", len(comps), len(fileComps))
		}
		for r := range comps {
			got, err := comps[r].Decompress()
			if err != nil {
				t.Fatalf("decompressing frame %s rank %d: %v", f.Name, r, err)
			}
			want, err := fileComps[r].Decompress()
			if err != nil {
				t.Fatalf("decompressing file %s rank %d: %v", f.Name, r, err)
			}
			if len(got) != len(want) {
				t.Fatalf("rank %d: frame has %d blocks, file %d", r, len(got), len(want))
			}
			for b := range got {
				for i := range got[b] {
					if got[b][i] != want[b][i] {
						t.Fatalf("frame %s rank %d block %d sample %d: %g != %g",
							f.Name, r, b, i, got[b][i], want[b][i])
					}
				}
			}
		}
	}
	// Steps 2 and 4 dump, each shipping p and Γ.
	if frames != 4 {
		t.Fatalf("stream carries %d frame events, want 4", frames)
	}
}

// TestFleetFrameTail: a fleet job with dump_every set gets -frame-log in
// its rank args, and the service tails the records the rank-0 sink appends
// back into frame events with the payload and the keys intact.
func TestFleetFrameTail(t *testing.T) {
	s := fleetService(t, false)
	spec := fastSpec("alice", "")
	spec.Params.Ranks = [3]int{2, 1, 1}
	spec.Params.DumpEvery = 2
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateSucceeded {
		t.Fatalf("fleet job ended %s", st)
	}
	evs, _, err := j.EventsSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got *dump.FrameRecord
	for _, e := range evs {
		if e.Type == "frame" {
			got = e.Frame
			checkFrameKeys(t, e)
		}
	}
	if got == nil {
		t.Fatal("fleet stream carries no frame events")
	}
	if got.Name != "p_step000002.mpcf" || got.Step != 2 || got.Quantity != "p" {
		t.Fatalf("frame metadata %+v", got)
	}
	if !bytes.Equal(got.Data, fakeFramePayload()) {
		t.Fatalf("frame payload did not survive the log tail: %q", got.Data)
	}
}
