package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cubism/internal/service"
)

// clients is the closed loop's width: each client is one tenant that submits
// its next job only when the previous one has reached a terminal event.
// warmJobs jobs per client run before the timed loop and count as set-up:
// they spawn the pool workers and fill the HTTP connection pool.
const (
	clients  = 2
	warmJobs = 4
)

// jobTiming is one job as its client saw it, with the server's own event
// timestamps (client and server share this process's clock).
type jobTiming struct {
	submit, posted       time.Time // before and after POST /v1/jobs
	firstStepAt, doneAt  time.Time // client receipt of the first step / terminal event
	running, first, last time.Time // server time of state=running, first and last step
	firstWallMS          float64   // wall time of the first step, from its event
	terminal             time.Time // server time of the terminal state event
	lagMS                []float64 // event creation to client receipt, per event
	events               int
	rejected             bool // the submission was refused (429/503)
	err                  error
}

// jobSession is one round of service_jobs: stand the service up behind a
// loopback http.Server, run warmJobs jobs per client (set-up), then the
// timed closed loop. op = submit to terminal event, aux = submit to first
// step event, both on the client's clock. Client 0 records the spans.
func jobSession(sp spec, e *env, idx int, rec *recorder) (round, error) {
	t0 := time.Now()
	root := rec.begin("workload."+sp.name, -1)
	defer rec.end(root)
	dir, err := e.tempDir("service-")
	if err != nil {
		return round{}, err
	}

	s := rec.begin("service.New", root)
	svc, err := service.New(service.Config{DataDir: dir, Workers: clients})
	if err != nil {
		return round{}, err
	}
	defer svc.Close() // returns once the worker pool has exited
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return round{}, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns when Close closes the listener
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	rec.end(s)

	// Every fourth job streams compressed frames; the seed shifts which.
	spec := func(c, i int) (service.JobSpec, int) {
		js := service.JobSpec{
			Scenario: "cloud", Tenant: fmt.Sprintf("client-%d", c), Mode: service.ModeInproc,
			Nonce: fmt.Sprintf("s%d-r%d-c%d-j%d", e.seed, idx, c, i),
			Params: service.SpecParams{
				Blocks: sp.blocks, BlockSize: sp.n, Steps: sp.jobSteps,
				Workers: sp.workers, Seed: e.seed,
			},
		}
		frames := 0
		if i >= 0 && (int64(i)+e.seed)%4 == 0 {
			js.Params.DumpEvery = 2
			frames = len(dumped) * (sp.jobSteps / 2)
		}
		return js, frames
	}

	var wg sync.WaitGroup
	warmErrs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i <= warmJobs; i++ {
				js, frames := spec(c, -i)
				jt := runJob(client, base, js, sp.jobSteps, frames)
				if jt.err != nil {
					warmErrs[c] = jt.err
				}
				if c == 0 {
					jobSpans(rec, root, jt)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range warmErrs {
		if err != nil {
			return round{}, fmt.Errorf("warm-up job: %w", err)
		}
	}

	start := time.Now()
	perClient := make([][]jobTiming, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < sp.jobs; i++ {
				js, frames := spec(c, i)
				jt := runJob(client, base, js, sp.jobSteps, frames)
				perClient[c] = append(perClient[c], jt)
				if c == 0 {
					jobSpans(rec, root, jt)
				}
			}
		}(c)
	}
	wg.Wait()
	rd := round{setupS: start.Sub(t0).Seconds(), wallS: time.Since(start).Seconds()}
	for _, jts := range perClient {
		for _, jt := range jts {
			e.chk.ok(jt.err == nil, "%s: job: %v", sp.name, jt.err)
			if jt.err != nil {
				continue // a failed or refused job misses every latency bound
			}
			rd.ops++
			rd.op = append(rd.op, jt.doneAt.Sub(jt.submit).Seconds()*1e3)
			rd.aux = append(rd.aux, jt.firstStepAt.Sub(jt.submit).Seconds()*1e3)
		}
		rd.jobs = append(rd.jobs, jts...)
	}
	events := 0
	for _, jt := range rd.jobs {
		events += jt.events
	}
	e.compare(sp, "jobs", map[string]float64{"completed": float64(rd.ops), "events": float64(events)}, 0)
	return rd, nil
}

// runJob submits one job and follows its event stream to the terminal event,
// checking that the stream is complete and ordered: gap-free sequence
// numbers, exactly steps step events numbered 1..steps, the expected number
// of frames, and a succeeded terminal state.
func runJob(client *http.Client, base string, js service.JobSpec, steps, frames int) jobTiming {
	jt := jobTiming{submit: time.Now()}
	body, err := json.Marshal(js)
	if err != nil {
		jt.err = err
		return jt
	}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		jt.err = err
		return jt
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	jt.posted = time.Now()
	if resp.StatusCode != http.StatusCreated {
		jt.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		jt.err = fmt.Errorf("submit returned %d", resp.StatusCode)
		return jt
	}
	if err != nil {
		jt.err = err
		return jt
	}

	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		jt.err = err
		return jt
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20) // frame events carry base64 dump images
	var gotSteps, gotFrames int
	var final service.JobState
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			jt.err = fmt.Errorf("event %d: %w", jt.events, err)
			return jt
		}
		now := time.Now()
		if ev.Seq != jt.events {
			jt.err = fmt.Errorf("event stream gap: seq %d at position %d", ev.Seq, jt.events)
			return jt
		}
		jt.events++
		jt.lagMS = append(jt.lagMS, now.Sub(ev.Time).Seconds()*1e3)
		switch {
		case ev.Type == "state" && ev.State == service.StateRunning:
			jt.running = ev.Time
		case ev.Type == "step" && ev.Step != nil:
			gotSteps++
			if ev.Step.Step != gotSteps {
				jt.err = fmt.Errorf("step event %d carries step %d", gotSteps, ev.Step.Step)
				return jt
			}
			if gotSteps == 1 {
				jt.first, jt.firstStepAt, jt.firstWallMS = ev.Time, now, ev.Step.WallMS
			}
			jt.last = ev.Time
		case ev.Type == "frame":
			gotFrames++
		case ev.Type == "state" && ev.State.Terminal():
			final, jt.terminal, jt.doneAt = ev.State, ev.Time, now
		}
	}
	switch {
	case sc.Err() != nil:
		jt.err = sc.Err()
	case final != service.StateSucceeded:
		jt.err = fmt.Errorf("job %s ended %q", st.ID, final)
	case gotSteps != steps || gotFrames != frames:
		jt.err = fmt.Errorf("job %s streamed %d steps and %d frames, want %d and %d", st.ID, gotSteps, gotFrames, steps, frames)
	}
	return jt
}

// jobSpans lays one job out as spans: the POST as timed, the server-side
// phases between the timestamps its events carry. The first step's own wall
// time, which its event reports, separates building the case from stepping.
func jobSpans(rec *recorder, root int, jt jobTiming) {
	if rec == nil || jt.err != nil {
		return
	}
	stepping := jt.first.Add(-time.Duration(jt.firstWallMS * float64(time.Millisecond)))
	rec.between(root, "service.submit_to_running", jt.submit, jt.running)
	rec.between(root, "scenario.build_and_init", jt.running, stepping)
	rec.between(root, "sim.steps", stepping, jt.last)
	rec.between(root, "service.finish", jt.last, jt.terminal)
	rec.between(root, "service.deliver", jt.terminal, jt.doneAt)
}

// serviceMetrics reduces job timings to the service layer's metrics.
func serviceMetrics(jts []jobTiming, v values) {
	var submit, queue, build, run, finish, lag []float64
	var events, rejected, done int
	ms := func(from, to time.Time) float64 { return to.Sub(from).Seconds() * 1e3 }
	for _, jt := range jts {
		if jt.rejected {
			rejected++
		}
		if jt.err != nil {
			continue
		}
		done++
		events += jt.events
		submit = append(submit, ms(jt.submit, jt.posted))
		queue = append(queue, ms(jt.submit, jt.running))
		build = append(build, ms(jt.running, jt.first))
		run = append(run, ms(jt.first, jt.last))
		finish = append(finish, ms(jt.last, jt.terminal))
		lag = append(lag, jt.lagMS...)
	}
	v["service.submit_ms_p50"] = median(submit)
	v["service.queue_wait_ms_p50"] = median(queue)
	v["service.build_ms_p50"] = median(build)
	v["service.run_ms_p50"] = median(run)
	v["service.finish_ms_p50"] = median(finish)
	v["service.event_lag_ms_p50"] = median(lag)
	v["service.events_per_job"] = ratio(float64(events), float64(done))
	v["service.rejected"] = float64(rejected)
}
