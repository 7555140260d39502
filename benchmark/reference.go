package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
)

// reference.json holds the outputs of the committed workload sizes for the
// default seed, keyed GOARCH → workload → name: floating-point results are
// only reproducible per architecture (FMA contraction differs). It is
// embedded, so reading it does not depend on the working directory.
//
//go:embed reference.json
var referenceJSON []byte

const defaultSeed = 42

type reference struct {
	data map[string]map[string]map[string]float64
}

// loadReference parses the embedded reference, or, when a path is given,
// the file on disk: --update-reference adds to what earlier runs recorded,
// which the binary's embedded copy does not have.
func loadReference(path string) (*reference, error) {
	data := referenceJSON
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("--update-reference must be run from the repository root: %w", err)
		}
	}
	r := &reference{}
	if err := json.Unmarshal(data, &r.data); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if r.data == nil {
		r.data = map[string]map[string]map[string]float64{}
	}
	return r, nil
}

// covers reports whether the reference has outputs of the workload for this
// architecture.
func (r *reference) covers(sp spec) bool {
	return len(r.data[runtime.GOARCH][sp.name]) > 0
}

func (r *reference) save(path string) error {
	data, err := json.MarshalIndent(r.data, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare checks named outputs against the reference, each within the
// relative tolerance tol (0: exactly equal); every comparison is one
// attempted operation. Only the committed sizes at the default seed have a
// reference; with --update-reference the outputs are recorded instead.
func (e *env) compare(sp spec, group string, got map[string]float64, tol float64) {
	if !sp.reference || e.seed != defaultSeed {
		return
	}
	arch := runtime.GOARCH
	if e.updateRef {
		if e.ref.data[arch] == nil {
			e.ref.data[arch] = map[string]map[string]float64{}
		}
		if e.ref.data[arch][sp.name] == nil {
			e.ref.data[arch][sp.name] = map[string]float64{}
		}
		for k, x := range got {
			e.ref.data[arch][sp.name][group+"."+k] = x
		}
		return
	}
	for k, x := range got {
		want, ok := e.ref.data[arch][sp.name][group+"."+k]
		if !ok {
			continue
		}
		diff := math.Abs(x - want)
		e.chk.ok(diff <= tol*math.Abs(want), "%s: %s.%s = %v, reference %v (tolerance %g)",
			sp.name, group, k, x, want, tol)
	}
}
