// Package launch forks and supervises local rank fleets: N mpcf-sim
// processes over the tcp transport with the per-rank flags injected
// (-transport tcp -rank i -coord), output multiplexed with [rank i]
// prefixes, and first-failure kill semantics — a minimal local mpirun,
// importable so the job service (internal/service) and the CLI wrapper
// (cmd/mpcf-launch) share one fleet-spawning path.
//
// The lifecycle is split into Start (fork the ranks) and (*Fleet).Wait
// (collect the verdict), so a supervisor can cancel a running fleet with
// Interrupt — the same polite-SIGINT-then-SIGKILL cascade a rank failure
// triggers — while Wait is pending. Run is the one-shot convenience the
// CLI uses.
package launch

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrUsage marks spec validation failures (bad rank count, mismatched
// -ranks triple) so the CLI can map them to its usage exit code 2, apart
// from environmental failures (exit 1).
var ErrUsage = errors.New("usage")

// KillGrace is how long the cascade kill waits between the polite SIGINT
// (which lets mpcf-sim flush its telemetry buffers and write a final
// checkpoint, leaving usable partial artifacts) and the SIGKILL escalation
// for ranks that ignore it.
const KillGrace = 2 * time.Second

// Spec describes one fleet launch.
type Spec struct {
	// N is the number of ranks (local processes). The -ranks triple in
	// Args must multiply to N; when absent, "-ranks N,1,1" is injected.
	N int
	// SimBin is the mpcf-sim binary ("" resolves a sibling of this
	// executable, falling back to PATH lookup).
	SimBin string
	// Args is passed to every rank verbatim, after the injected
	// per-rank transport flags.
	Args []string
	// RankArgs (optional) returns extra arguments for one specific rank,
	// appended after Args — how a supervisor gives only rank 0 a
	// -step-log or an -observables path.
	RankArgs func(rank int) []string
	// Stdout receives the [rank i]-prefixed output mux; Stderr receives
	// launcher diagnostics. Either nil defaults to the os stream.
	Stdout, Stderr io.Writer
	// KillGrace overrides the SIGINT→SIGKILL escalation delay for this
	// fleet (0: the package KillGrace constant). A supervisor that grants
	// its ranks a longer -stop-grace must stretch this past it, or the
	// SIGKILL lands before the ranks reach their stop boundary.
	KillGrace time.Duration
}

// Fleet is a running set of rank processes.
type Fleet struct {
	stderr    io.Writer
	killGrace time.Duration

	// outMu serializes every line the fleet writes to the caller's Stdout
	// and Stderr: the per-rank pump and exit goroutines write concurrently,
	// and the writers the supervisor passes in need not be thread-safe.
	outMu sync.Mutex

	// mu guards procs/aborted: the launch loop appends while rank-exit
	// goroutines may already be cascading a kill.
	mu      sync.Mutex
	procs   []*exec.Cmd
	aborted bool

	failOnce sync.Once
	failCode int

	procWG sync.WaitGroup
	outWG  sync.WaitGroup
}

// Start validates the spec, forks the ranks and returns the live fleet.
// Errors before any rank starts (bad spec, unreservable coordinator port)
// are returned directly; a rank that fails after starting is handled by
// the first-failure cascade and reported by Wait.
func Start(spec Spec) (*Fleet, error) {
	if spec.Stdout == nil {
		spec.Stdout = os.Stdout
	}
	if spec.Stderr == nil {
		spec.Stderr = os.Stderr
	}
	if spec.N <= 0 {
		return nil, fmt.Errorf("launch: rank count %d must be positive: %w", spec.N, ErrUsage)
	}
	args := spec.Args
	// Validate or inject the -ranks decomposition: its product must be N.
	if prod, ok := RanksProduct(args); !ok {
		args = append(append([]string(nil), args...), "-ranks", fmt.Sprintf("%d,1,1", spec.N))
	} else if prod != spec.N {
		return nil, fmt.Errorf("launch: -ranks product %d does not match rank count %d: %w", prod, spec.N, ErrUsage)
	}
	bin := spec.SimBin
	if bin == "" {
		bin = SiblingOrPath("mpcf-sim")
	}

	// Bind the coordinator port here: rank 0 could race another launcher if
	// it picked its own. The listener is closed and the address re-bound by
	// rank 0; the window is tiny and a stolen port fails loudly at dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("launch: reserving coordinator port: %w", err)
	}
	coord := ln.Addr().String()
	ln.Close()

	f := &Fleet{stderr: spec.Stderr, killGrace: spec.KillGrace}
	if f.killGrace <= 0 {
		f.killGrace = KillGrace
	}
	for r := 0; r < spec.N; r++ {
		rankArgs := append([]string{
			"-transport", "tcp",
			"-rank", strconv.Itoa(r),
			"-coord", coord,
		}, args...)
		if spec.RankArgs != nil {
			rankArgs = append(rankArgs, spec.RankArgs(r)...)
		}
		cmd := exec.Command(bin, rankArgs...)
		pipe, err := cmd.StdoutPipe()
		if err == nil {
			cmd.Stderr = cmd.Stdout // one interleave-safe stream per rank
		}
		if err != nil {
			f.printf(spec.Stderr, "launch: rank %d pipe: %v\n", r, err)
			f.fail(1)
			break
		}
		f.mu.Lock()
		if f.aborted {
			f.mu.Unlock()
			break
		}
		if err := cmd.Start(); err != nil {
			f.mu.Unlock()
			f.printf(spec.Stderr, "launch: rank %d start: %v\n", r, err)
			f.fail(1)
			break
		}
		f.procs = append(f.procs, cmd)
		f.mu.Unlock()
		outDone := make(chan struct{})
		f.outWG.Add(1)
		go func(r int, pipe io.Reader) {
			defer close(outDone)
			f.prefixCopy(spec.Stdout, r, pipe)
		}(r, pipe)
		f.procWG.Add(1)
		go func(r int, cmd *exec.Cmd) {
			defer f.procWG.Done()
			// cmd.Wait closes the read end of the stdout pipe, so it must
			// not race the output pump: a rank that exits quickly would
			// have its tail silently dropped by the closed pipe. The pump
			// sees EOF once the rank (killed or exited) releases the write
			// end, so waiting for it first cannot hang.
			<-outDone
			err := cmd.Wait()
			code := 0
			if err != nil {
				code = 1
				if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() > 0 {
					code = ee.ExitCode()
				}
			}
			if code != 0 {
				f.printf(spec.Stderr, "[rank %d] exited with code %d\n", r, code)
				f.fail(code) // a dead rank wedges the others; fail fast
			}
		}(r, cmd)
	}
	return f, nil
}

// printf writes one message under the fleet's output lock.
func (f *Fleet) printf(w io.Writer, format string, args ...any) {
	f.outMu.Lock()
	defer f.outMu.Unlock()
	fmt.Fprintf(w, format, args...)
}

// fail records the FIRST failure observed, exactly once, before the
// cascade kill: the ranks killed by the cascade die with -1 (signal) and
// must not shadow the real failing code.
func (f *Fleet) fail(code int) {
	f.failOnce.Do(func() { f.failCode = code })
	f.killAll()
}

// killAll interrupts every rank, then kills the stragglers after the
// fleet's kill grace. Interrupt first so the ranks can stop at a step
// boundary and flush trace and step-log buffers on the way down.
// Signaling an already-exited process just returns an error, which is
// fine to drop.
func (f *Fleet) killAll() {
	f.mu.Lock()
	f.aborted = true
	targets := append([]*exec.Cmd(nil), f.procs...)
	f.mu.Unlock()
	for _, p := range targets {
		if p.Process != nil {
			p.Process.Signal(os.Interrupt)
		}
	}
	go func() {
		time.Sleep(f.killGrace)
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, p := range f.procs {
			if p.Process != nil {
				p.Process.Kill()
			}
		}
	}()
}

// Interrupt cancels the fleet cooperatively: every rank gets SIGINT (ranks
// stop at the next step boundary, write their final checkpoint when
// configured, and flush telemetry), with the SIGKILL escalation after
// KillGrace for ranks that ignore it. Wait still returns the first
// recorded verdict; a fleet that only died from this cancellation reports
// the interrupted ranks' exit code.
func (f *Fleet) Interrupt() { f.killAll() }

// Kill force-kills every rank immediately, skipping the polite phase.
func (f *Fleet) Kill() {
	f.mu.Lock()
	f.aborted = true
	targets := append([]*exec.Cmd(nil), f.procs...)
	f.mu.Unlock()
	for _, p := range targets {
		if p.Process != nil {
			p.Process.Kill()
		}
	}
}

// Wait blocks until every rank exited and the output mux drained, and
// returns the first failing rank's exit code (normalized: a signal death
// counts as 1), or 0 when every rank succeeded.
func (f *Fleet) Wait() int {
	f.procWG.Wait()
	f.outWG.Wait()
	return f.failCode
}

// Run is Start + Wait: the one-shot path of the CLI wrapper. Spec errors
// return the usage exit code 2.
func Run(spec Spec) int {
	f, err := Start(spec)
	if err != nil {
		stderr := spec.Stderr
		if stderr == nil {
			stderr = os.Stderr
		}
		fmt.Fprintf(stderr, "mpcf-launch: %v\n", err)
		if errors.Is(err, ErrUsage) {
			return 2
		}
		return 1
	}
	return f.Wait()
}

// prefixCopy copies r's output line by line with a "[rank i]" prefix, so
// interleaved output from concurrent ranks stays attributable.
func (f *Fleet) prefixCopy(w io.Writer, rank int, r io.Reader) {
	defer f.outWG.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f.printf(w, "[rank %d] %s\n", rank, sc.Text())
	}
}

// RanksProduct scans args for -ranks/--ranks and returns the product of
// the decomposition triple (single value = cube shorthand, as mpcf-sim
// parses it).
func RanksProduct(args []string) (int, bool) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		var val string
		switch {
		case a == "-ranks" || a == "--ranks":
			if i+1 >= len(args) {
				return 0, false
			}
			val = args[i+1]
		case strings.HasPrefix(a, "-ranks="):
			val = strings.TrimPrefix(a, "-ranks=")
		case strings.HasPrefix(a, "--ranks="):
			val = strings.TrimPrefix(a, "--ranks=")
		default:
			continue
		}
		parts := strings.Split(val, ",")
		if len(parts) == 1 {
			parts = []string{parts[0], parts[0], parts[0]}
		}
		prod := 1
		for _, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v <= 0 {
				return 0, false
			}
			prod *= v
		}
		return prod, true
	}
	return 0, false
}

// SiblingOrPath prefers a binary sitting next to this executable (the
// common "make bin" layout), falling back to PATH lookup.
func SiblingOrPath(name string) string {
	if self, err := os.Executable(); err == nil {
		if i := strings.LastIndexByte(self, '/'); i >= 0 {
			sib := self[:i+1] + name
			if st, err := os.Stat(sib); err == nil && !st.IsDir() {
				return sib
			}
		}
	}
	return name
}
