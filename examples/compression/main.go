// Compression walkthrough: the paper's wavelet pipeline on a synthetic
// two-phase snapshot, sweeping the decimation threshold ε and both lossless
// coders, then verifying the L∞ error bound by decompressing against a
// near-lossless reference.
//
// Reproduces the §7 observations: Γ (piecewise constant across the
// interface) compresses an order of magnitude better than p, the rate grows
// with ε, and the reconstruction error tracks ε.
//
//	go run ./examples/compression
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"cubism"
)

const steps = 2

func main() {
	bubbles, err := cubism.GenerateCloud(cubism.CloudSpec{
		Center: [3]float64{0.5, 0.5, 0.5},
		Radius: 0.35,
		N:      10,
		RMin:   0.05, RMax: 0.1,
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Reference snapshot: effectively lossless (ε = 1e-9 relative).
	ref, _, err := snapshot(bubbles, 1e-9, "zlib")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("quantity  encoder  epsilon     rate    max_err/range")
	for _, eps := range []float64{1e-4, 1e-3, 1e-2} {
		for _, enc := range []string{"zlib", "rle"} {
			rec, rates, err := snapshot(bubbles, eps, enc)
			if err != nil {
				log.Fatal(err)
			}
			for _, q := range []string{"p", "G"} {
				e := maxRelErr(ref[q], rec[q])
				fmt.Printf("%-9s %-8s %.0e   %8.1f:1   %.2e\n", q, enc, eps, rates[q], e)
			}
		}
	}
	fmt.Println("\nShape check (paper §7): Γ rates ≫ p rates; error tracks ε.")
}

// snapshot runs the deterministic 2-step cloud and returns the decompressed
// fields (flattened per quantity) plus the achieved compression rates.
func snapshot(bubbles []cubism.Bubble, eps float64, enc string) (map[string][]float32, map[string]float64, error) {
	dir, err := os.MkdirTemp("", "mpcf-compress-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var rates map[string]float64
	cfg := cubism.Config{
		Cluster: cubism.ClusterConfig{
			BlockDims: [3]int{4, 4, 4},
			BlockSize: 16,
			Extent:    1.0,
			Init:      cubism.CloudField(bubbles, 0.02),
		},
		Steps:     steps,
		DumpEvery: steps,
		DumpDir:   dir,
		EpsP:      eps,
		EpsG:      eps,
		Encoder:   enc,
		DiagEvery: 1000,
	}
	if _, err := cubism.Run(cfg, func(s cubism.StepInfo) {
		if s.DumpRates != nil {
			rates = s.DumpRates
		}
	}); err != nil {
		return nil, nil, err
	}
	out := map[string][]float32{}
	for _, q := range []string{"p", "G"} {
		path := filepath.Join(dir, fmt.Sprintf("%s_step%06d.mpcf", q, steps))
		_, fields, err := cubism.ReadDump(path)
		if err != nil {
			return nil, nil, err
		}
		var flat []float32
		for _, rank := range fields {
			for _, blk := range rank {
				flat = append(flat, blk...)
			}
		}
		out[q] = flat
	}
	return out, rates, nil
}

// maxRelErr returns the maximum absolute deviation normalized by the
// reference field range.
func maxRelErr(ref, rec []float32) float64 {
	maxV, minV := math.Inf(-1), math.Inf(1)
	for _, v := range ref {
		fv := float64(v)
		if fv > maxV {
			maxV = fv
		}
		if fv < minV {
			minV = fv
		}
	}
	rng := maxV - minV
	if rng == 0 {
		rng = 1
	}
	maxE := 0.0
	for i := range ref {
		if e := math.Abs(float64(ref[i] - rec[i])); e > maxE {
			maxE = e
		}
	}
	return maxE / rng
}
