// Command cubism-bench is the repository benchmark: four workloads, the
// end-to-end metrics a user of the solver sees, and a traced mode that times
// calls into each layer's public functions from outside. See README.md.
//
// Everything runs in this one process: tcp ranks are single-rank worlds
// meshed over 127.0.0.1:0, service jobs run in inproc mode behind a loopback
// http.Server, and every listener, pool and temp dir is torn down before the
// result line is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// checks tallies the operations and correctness checks of a run; the result
// line reports them as attempted/failed.
type checks struct {
	attempted, failed int
	msgs              []string
}

// ok records one attempted operation and whether it succeeded.
func (c *checks) ok(cond bool, format string, args ...any) {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// env is what a workload run is given.
type env struct {
	seed    int64
	rounds  int      // set-up + timed-work repetitions of the end-to-end pass
	outDir  string   // scratch files and trace output; inside the checkout
	scratch []string // directories made by tempDir, removed by cleanup
	chk     *checks
	info    io.Writer // human-readable progress and derived numbers
	ref     *reference
	// updateRef makes the run record its reference values instead of
	// comparing against them.
	updateRef bool
	// probeScale scales the time and step budgets of the layer probes; 1 in
	// real runs, a fraction in the smoke test.
	probeScale float64
}

// tempDir makes a scratch directory under outDir. Scratch directories are
// removed together by cleanup when the run ends, not round by round: on this
// host's ext4 a burst of deletes slows the file creation of the rounds after
// it by a quarter, which made service_jobs bimodal.
func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(e.outDir, prefix)
	if err == nil {
		e.scratch = append(e.scratch, dir)
	}
	return dir, err
}

func (e *env) cleanup() {
	for _, dir := range e.scratch {
		os.RemoveAll(dir)
	}
	e.scratch = nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cubism-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "workload seed: feeds the bubble cloud and the job nonces")
	seconds := fs.Int("seconds", 25, "measuring time; sets the number of fixed-size rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	updateRef := fs.Bool("update-reference", false, "record this run's reference outputs in benchmark/reference.json (run from the repository root)")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for scratch files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seed < 0 {
		*seed = -*seed
	}
	refPath := ""
	if *updateRef {
		refPath = filepath.Join("benchmark", "reference.json")
	}
	ref, err := loadReference(refPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	e := &env{
		seed: *seed, rounds: sp.roundsFor(*seconds), outDir: *outDir,
		chk: &checks{}, info: stdout, ref: ref, updateRef: *updateRef, probeScale: 1,
	}
	defer e.cleanup()

	// Watchdog: a hung collective or a stuck job must end the process with
	// a diagnosis, not outlive the driver's patience.
	limit := 3 * time.Duration(*seconds+15) * time.Second
	wd := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "watchdog: workload %s exceeded %v; goroutines:\n", sp.name, limit)
		pprof.Lookup("goroutine").WriteTo(stderr, 2)
		e.cleanup()
		os.Exit(3)
	})
	defer wd.Stop()

	var v values
	decls := endToEnd
	if *trace != 0 {
		decls = perLayer
		v, err = runTraced(sp, e)
	} else {
		v, err = runEndToEnd(sp, e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "workload %s: %v\n", sp.name, err)
		return 1
	}
	if *updateRef {
		if err := ref.save(refPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	m, err := emit(decls, v)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printTable(stdout, decls, m)
	for _, msg := range e.chk.msgs {
		fmt.Fprintln(stderr, "FAILED:", msg)
	}
	fmt.Fprintf(stdout, "%-34s %14s %s\n", "failed_ops_share",
		strconv.FormatFloat(ratio(float64(e.chk.failed), float64(e.chk.attempted)), 'g', -1, 64),
		fmt.Sprintf("ratio (%d of %d)", e.chk.failed, e.chk.attempted))
	res := result{
		Correct: e.chk.failed == 0, Attempted: max(e.chk.attempted, 1),
		Failed: e.chk.failed, Metrics: m,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, decls []decl, m map[string]metric) {
	for _, d := range decls {
		fmt.Fprintf(w, "%-34s %14s %s\n", d.name,
			strconv.FormatFloat(m[d.name].Value, 'g', 6, 64), d.unit)
	}
}

func workloadNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
