// mpcf-bench regenerates the paper's evaluation: every table (3-10) and
// figure (5, 7, 9) plus the §7 compression-rate, throughput and I/O
// footprint analyses, printed as text with the paper's published values
// alongside.
//
// Usage:
//
//	mpcf-bench                  # run everything
//	mpcf-bench -exp table7      # one experiment
//	mpcf-bench -n 32 -dur 2s    # production block size, longer timing
//
// Experiments: table3 table4 table5 table6 table7 table8 table9 table10
// fig5 fig7 fig9 compression throughput io all
//
// The repository's performance record is the benchmark declared in
// BENCHMARK.json (see benchmark/README.md), not this command: mpcf-bench
// reproduces the paper's tables and figures at a host-sized scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cubism/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table3..table10, fig5, fig7, fig9, compression, throughput, io, all)")
	n := flag.Int("n", 16, "block edge in cells (paper production: 32)")
	dur := flag.Duration("dur", 500*time.Millisecond, "minimum timing window per kernel measurement")
	steps := flag.Int("steps", 100, "time steps for the simulation-driven experiments")
	flag.Parse()

	w := os.Stdout
	run := map[string]func(){
		"table3":      func() { experiments.Table3(w, *n) },
		"table4":      func() { experiments.Table4(w, *n) },
		"table5":      func() { experiments.Table5(w, *n, *dur) },
		"table6":      func() { experiments.Table6(w, *n, *dur) },
		"table7":      func() { experiments.Table7(w, *n, *dur) },
		"table8":      func() { experiments.Table8(w, *n) },
		"table9":      func() { experiments.Table9(w, *n, *dur) },
		"table10":     func() { experiments.Table10(w, *n, *dur) },
		"fig5":        func() { experiments.Fig5(w, *steps) },
		"fig7":        func() { experiments.Fig7(w, *steps) },
		"fig9":        func() { experiments.Fig9(w, *dur) },
		"compression": func() { experiments.Compression(w, *n) },
		"throughput":  func() { experiments.Throughput(w, *steps) },
		"io":          func() { experiments.IO(w, *n) },
	}
	order := []string{
		"table3", "table4", "table5", "table6", "table7", "table8",
		"table9", "table10", "fig5", "fig7", "fig9", "compression", "throughput", "io",
	}
	if *exp == "all" {
		for _, id := range order {
			run[id]()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; one of %v or all\n", *exp, order)
		os.Exit(2)
	}
	f()
}
