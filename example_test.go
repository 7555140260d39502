package cubism_test

import (
	"fmt"

	"cubism"
)

// Example runs a minimal Sod shock tube and prints the step count — the
// smallest complete use of the public API.
func Example() {
	summary, err := cubism.Run(cubism.Config{
		Cluster: cubism.ClusterConfig{
			BlockDims: [3]int{2, 1, 1},
			BlockSize: 8,
			Extent:    1.0,
			Init:      cubism.SodInit,
		},
		Steps:     3,
		DiagEvery: 1 << 30,
	}, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("steps:", summary.Steps)
	// Output: steps: 3
}

// ExampleGenerateCloud shows reproducible bubble-cloud generation.
func ExampleGenerateCloud() {
	bubbles, err := cubism.GenerateCloud(cubism.CloudSpec{
		Center: [3]float64{0.5, 0.5, 0.5},
		Radius: 0.3,
		N:      5,
		RMin:   0.03, RMax: 0.06,
		Seed: 1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("bubbles:", len(bubbles))
	// Output: bubbles: 5
}
