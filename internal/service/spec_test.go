package service

import (
	"strings"
	"testing"
)

func validSpec() JobSpec {
	return JobSpec{
		Scenario: "shockbubble",
		Tenant:   "alice",
		Params: SpecParams{
			Blocks: [3]int{2, 2, 2}, BlockSize: 8, Steps: 4, DiagEvery: 2,
		},
	}
}

func TestSpecIDDeterministic(t *testing.T) {
	a, b := validSpec(), validSpec()
	if a.ID() != b.ID() {
		t.Fatalf("identical specs hash differently: %s vs %s", a.ID(), b.ID())
	}
	b.Nonce = "rerun-1"
	if a.ID() == b.ID() {
		t.Fatalf("nonce did not change the ID")
	}
	c := validSpec()
	c.Params.Steps = 5
	if a.ID() == c.ID() {
		t.Fatalf("parameter change did not change the ID")
	}
	if !strings.HasPrefix(a.ID(), "j-") || len(a.ID()) != 18 {
		t.Fatalf("ID %q not in j-<16 hex> form", a.ID())
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"scenario":"cloud","tenant":"a","bogus":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	_, err = ParseSpec(strings.NewReader(`{"scenario":"cloud","tenant":"a"} trailing`))
	if err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"unknown scenario", func(s *JobSpec) { s.Scenario = "warp" }},
		{"empty tenant", func(s *JobSpec) { s.Tenant = "" }},
		{"tenant with slash", func(s *JobSpec) { s.Tenant = "a/b" }},
		{"tenant with dotdot is fine but spaces are not", func(s *JobSpec) { s.Tenant = "a b" }},
		{"priority out of range", func(s *JobSpec) { s.Priority = 11 }},
		{"bad mode", func(s *JobSpec) { s.Mode = "warp" }},
		{"partial ranks triple", func(s *JobSpec) { s.Params.Ranks = [3]int{2, 0, 0} }},
		{"rank product over cap", func(s *JobSpec) { s.Params.Ranks = [3]int{4, 4, 4} }},
		{"block size over the cap", func(s *JobSpec) { s.Params.BlockSize = 72 }},
		{"cell count over the cap", func(s *JobSpec) {
			s.Params.Ranks = [3]int{16, 1, 1}
			s.Params.Blocks = [3]int{64, 64, 64}
		}},
		{"dump on a block edge the wavelet cannot transform", func(s *JobSpec) {
			s.Scenario = "cloud"
			s.Mode = ModeInproc
			s.Params = SpecParams{Blocks: [3]int{1, 1, 1}, BlockSize: 12, Steps: 2, DumpEvery: 1}
		}},
		{"unknown encoder", func(s *JobSpec) { s.Params.Encoder = "bogus" }},
		{"negative steps", func(s *JobSpec) { s.Params.Steps = -1 }},
		{"negative seed", func(s *JobSpec) { s.Params.Seed = -3 }},
		{"bad layout", func(s *JobSpec) { s.Params.Layout = "zigzag" }},
		{"beta and bubbles together", func(s *JobSpec) {
			s.Scenario = "cloud"
			s.Params.Beta = 2
			s.Params.Bubbles = 5
		}},
		{"array edge beyond registry bound", func(s *JobSpec) {
			s.Scenario = "array"
			s.Params.Bubbles = 9
		}},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, s)
		}
	}
	ok := validSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Without dumps any edge in [8, 64] runs.
	ok.Params.BlockSize = 12
	if err := ok.Validate(); err != nil {
		t.Fatalf("12³ blocks without dumps rejected: %v", err)
	}
}

// FuzzJobSpec drives the submit-side parser and validator with arbitrary
// bytes: no input may panic, and any input that validates must have a
// stable deterministic ID and an idempotent validation verdict.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"scenario":"cloud","tenant":"alice","params":{"steps":10}}`))
	f.Add([]byte(`{"scenario":"shockbubble","tenant":"bob","priority":5,"mode":"fleet","params":{"ranks":[2,1,1]}}`))
	f.Add([]byte(`{"scenario":"array","tenant":"t-1","nonce":"n","params":{"bubbles":2,"layout":"hilbert"}}`))
	f.Add([]byte(`{"scenario":"cloud","tenant":"x","params":{"beta":1.5,"seed":7}}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if got, again := spec.ID(), spec.ID(); got != again {
			t.Fatalf("ID not deterministic: %s vs %s", got, again)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("validation not idempotent: %v", err)
		}
	})
}
