package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs/prof"
	"dx100/internal/obs/span"
	"dx100/internal/serve"
	"dx100/internal/workloads/pattern"
)

// serveSweep drives an in-process dx100d (serve.New with two workers,
// its Handler on a loopback listener) with a closed loop of two
// clients submitting small pattern jobs across the three modes. Every
// pass starts a fresh daemon, so its result cache starts empty and
// every pass sees the same hits and misses.
type serveSweep struct {
	seed int64
	sz   size
	// want maps a job id to the Result bytes exp.Spec.Run produces for
	// it, filled by the first pass; refS is what that took.
	want map[string][]byte
	refS float64
}

func newServeSweep(seed int64, sz size) *serveSweep { return &serveSweep{seed: seed, sz: sz} }

func (s *serveSweep) name() string { return "serve-sweep" }

// sweepJob is one distinct spec.
type sweepJob struct {
	id   string // the spec's content address, which is the daemon's job id
	spec exp.Spec
	body []byte // the POST /v1/runs request
}

// sweepPlan is one pass's traffic: the distinct jobs and, per client,
// the order it submits them in (indices into jobs; repeats included).
type sweepPlan struct {
	jobs    []sweepJob
	clients [2][]int
}

// sweepSampling is the interval-sampling config some jobs carry.
var sweepSampling = exp.SamplingConfig{Interval: 500, Detail: 1000, Warmup: 200}

// sweepPatterns is the number of distinct pattern files per size.
var sweepPatterns = map[size]int{sizeFull: 48, sizeSmall: 4}

// planSweep generates a pass's jobs from the seed. Every pattern runs
// in the three modes at full detail, and every other one once more as
// a sampled baseline. Each client owns every other job of a seeded
// order and, after every third fresh submission, repeats one of its own
// earlier jobs, so about one submission in four is a cache hit.
func planSweep(seed int64, sz size) (*sweepPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	pl := &sweepPlan{}
	add := func(f *pattern.File, mode exp.Mode, sampling *exp.SamplingConfig) error {
		n := f.Normalized()
		spec := exp.Spec{Scale: 1, Config: exp.Default(mode), Pattern: &n, Sampling: sampling}
		id, err := spec.Hash()
		if err != nil {
			return err
		}
		body, err := json.Marshal(map[string]any{
			"pattern": f, "mode": mode.String(), "scale": 1, "sampling": sampling,
		})
		if err != nil {
			return err
		}
		pl.jobs = append(pl.jobs, sweepJob{id: id, spec: spec, body: body})
		return nil
	}
	for i := 0; i < sweepPatterns[sz]; i++ {
		f := sweepPattern(rng, i)
		for _, m := range []exp.Mode{exp.Baseline, exp.DMP, exp.DX} {
			if err := add(f, m, nil); err != nil {
				return nil, err
			}
		}
		if i%2 == 0 {
			sc := sweepSampling
			if err := add(f, exp.Baseline, &sc); err != nil {
				return nil, err
			}
		}
	}
	for k, j := range rng.Perm(len(pl.jobs)) {
		seq := &pl.clients[k%2]
		*seq = append(*seq, j)
		if (k/2)%3 == 2 {
			*seq = append(*seq, (*seq)[rng.Intn(len(*seq)-1)])
		}
	}
	return pl, nil
}

// sweepPattern generates pattern file i. Its shape depends on i alone
// (a gather, a scatter, a gs, or a gather plus a scatter, each 8
// iterations of 64 or 128 indices), so every seed sends the same mix
// of job sizes; the seed draws the indices. Scatter targets never
// collide within an entry.
func sweepPattern(rng *rand.Rand, i int) *pattern.File {
	const delta, window, count = 1024, 64, 8
	pat := func(n int) []int64 {
		out := make([]int64, n)
		for j, r := range rng.Perm(delta)[:n] {
			out[j] = int64(r) + delta*rng.Int63n(window)
		}
		return out
	}
	entry := func(kernel string, n int) pattern.Entry {
		e := pattern.Entry{Kernel: kernel, Delta: delta, Count: count}
		if kernel == "gs" {
			e.Gather, e.Scatter = pat(n), pat(n)
		} else {
			e.Pattern = pat(n)
		}
		return e
	}
	f := &pattern.File{Name: fmt.Sprintf("sweep%d", i)}
	switch i % 4 {
	case 0:
		f.Entries = []pattern.Entry{entry("gather", 128)}
	case 1:
		f.Entries = []pattern.Entry{entry("scatter", 128)}
	case 2:
		f.Entries = []pattern.Entry{entry("gs", 64)}
	default:
		f.Entries = []pattern.Entry{entry("gather", 64), entry("scatter", 64)}
	}
	return f
}

// submission is one job as a client saw it.
type submission struct {
	job    int
	latMS  float64 // POST to terminal state
	cached bool
	status statusDoc
	err    error
}

// statusDoc is the subset of GET /v1/runs/{id} the benchmark reads.
type statusDoc struct {
	Status   string          `json:"status"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "canceled"
}

func (s *serveSweep) pass(tr *tracer) (*pass, error) {
	rec := tr.recorder()
	p := &pass{layers: map[string]float64{}}
	root := rec.Start("pass serve-sweep", span.Context{})
	defer root.End()

	// Set-up: generate the jobs, compile every distinct pattern once
	// (the daemon compiles again per job), start the daemon.
	t := time.Now()
	build := rec.Start("workloads.build", root.Context())
	pl, err := planSweep(s.seed, s.sz)
	if err == nil {
		for _, j := range pl.jobs {
			if _, err = pattern.Compile(j.spec.Pattern, 1); err != nil {
				break
			}
		}
	}
	build.End()
	if err != nil {
		return nil, fmt.Errorf("serve-sweep: inputs: %w", err)
	}
	p.layers["workloads.build_s"] = time.Since(t).Seconds()
	start := rec.Start("serve.New", root.Context())
	d, err := startDaemon(tr != nil)
	start.End()
	if err != nil {
		return nil, fmt.Errorf("serve-sweep: %w", err)
	}
	defer d.stop()
	p.setupS = time.Since(t).Seconds()

	// The timed pass: two closed-loop clients, from a collected heap.
	runtime.GC()
	tr.begin()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	timed := rec.Start("timed", root.Context())
	t = time.Now()
	var subs [2][]submission
	var wg sync.WaitGroup
	for c := range pl.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range pl.clients[c] {
				subs[c] = append(subs[c], d.submit(pl, j, rec, timed))
			}
		}(c)
	}
	wg.Wait()
	p.wallS = time.Since(t).Seconds()
	timed.End()
	p.allocMB = allocDelta(&ms)
	tr.end()

	// Daemon-side figures, then the traced extras, outside the timing.
	heap, err := d.heapMB()
	if err != nil {
		return nil, fmt.Errorf("serve-sweep: %w", err)
	}
	p.layers["serve.heap_mb"] = heap
	p.layers["serve.sim_runs"] = float64(d.srv.SimRuns())
	all := append(append([]submission(nil), subs[0]...), subs[1]...)
	var hits, waits []float64
	for _, sub := range all {
		p.opsMS = append(p.opsMS, sub.latMS)
		st := sub.status
		switch {
		case sub.cached:
			hits = append(hits, sub.latMS)
		case st.Started != nil:
			waits = append(waits, float64(st.Started.Sub(st.Created).Nanoseconds())/1e6)
		}
	}
	p.layers["serve.hit_ratio"] = float64(len(hits)) / float64(len(all))
	p.layers["serve.hit_ms"] = median(hits)
	p.layers["serve.queue_wait_ms"] = median(waits)
	var profiles map[string]*timelineDoc
	if tr != nil {
		profiles, err = d.jobProfiles(pl, p.layers)
		if err != nil {
			return nil, fmt.Errorf("serve-sweep: %w", err)
		}
	}

	// Output check: each distinct served Result must be byte-identical
	// to exp.ResultJSON of exp.Spec.Run for the same Spec, and repeated
	// submissions must return identical bytes.
	t = time.Now()
	check := rec.Start("check.compare", root.Context())
	if s.want == nil {
		ref := rec.Start("check.reference", check.Context())
		s.want, err = references(pl, rec, ref)
		ref.End()
		if err != nil {
			check.End()
			return nil, fmt.Errorf("serve-sweep: reference: %w", err)
		}
		s.refS = time.Since(t).Seconds()
		t = time.Now()
	}
	served := make([][]byte, len(pl.jobs))
	for _, sub := range all {
		p.attempted++
		job := pl.jobs[sub.job]
		got := []byte(sub.status.Result)
		var bad string
		switch {
		case sub.err != nil:
			bad = sub.err.Error()
		case sub.status.Status != "done":
			bad = fmt.Sprintf("ended %s: %s", sub.status.Status, sub.status.Error)
		case !bytes.Equal(got, s.want[job.id]):
			bad = "served Result differs from exp.Spec.Run"
		case served[sub.job] != nil && !bytes.Equal(got, served[sub.job]):
			bad = "repeated submission returned different bytes"
		}
		if bad != "" {
			p.failed++
			fmt.Fprintf(os.Stderr, "dxbench: serve-sweep job %s: %s\n", job.id[:12], bad)
			continue
		}
		served[sub.job] = got
	}
	check.End()
	p.layers["loopir.check_s"] = s.refS + time.Since(t).Seconds()

	// Mechanisms over the distinct served Results.
	execS := map[int]float64{}
	for _, sub := range all {
		if st := sub.status; !sub.cached && st.Started != nil && st.Finished != nil {
			execS[sub.job] = st.Finished.Sub(*st.Started).Seconds()
		}
	}
	var runs []run
	for i, b := range served {
		if b == nil {
			continue
		}
		res, err := exp.DecodeResult(b)
		if err != nil {
			return nil, fmt.Errorf("serve-sweep: %w", err)
		}
		if doc := profiles[pl.jobs[i].id]; doc != nil {
			res.Timeline, res.Stalls = doc.Timeline, doc.Stalls
		}
		runs = append(runs, run{res: res, hostS: execS[i], skipped: -1})
	}
	p.digest = digest(served)
	p.speedup = speedup(runs)
	mechanisms(p.layers, runs)
	return p, nil
}

// references runs every distinct spec directly, outside the daemon.
func references(pl *sweepPlan, rec *span.Recorder, parent *span.Span) (map[string][]byte, error) {
	want := map[string][]byte{}
	for _, j := range pl.jobs {
		sp := rec.Start("exp.Spec.Run", parent.Context())
		res, err := j.spec.Run(exp.RunOptions{})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.id[:12], err)
		}
		if want[j.id], err = exp.ResultJSON(res); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// daemon is an in-process dx100d on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon starts the daemon and waits until /healthz answers.
// profile turns on the daemon's per-job simprof profiling (traced pass
// only; served Results stay byte-identical).
func startDaemon(profile bool) (*daemon, error) {
	cfg := serve.Config{Workers: 2}
	if profile {
		cfg.ProfileWindow = traceWindow
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // no jobs yet; returns at once
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	if _, err := d.call(http.MethodGet, "/healthz", nil, nil, nil, nil); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.client.CloseIdleConnections()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dxbench: http shutdown:", err)
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dxbench: http serve:", err)
	}
	if err := d.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dxbench: daemon shutdown:", err)
	}
}

// call makes one request under a span named after its route, decoding
// a JSON response into out when out is non-nil, and returns the raw
// body otherwise.
func (d *daemon) call(method, path string, body []byte, out any, rec *span.Recorder, parent *span.Span) ([]byte, error) {
	route := path
	if rest, ok := strings.CutPrefix(path, "/v1/runs/"); ok {
		route = "/v1/runs/{id}"
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			route += rest[i:]
		}
	}
	sp := rec.Start("http "+method+" "+route, parent.Context())
	defer sp.End()
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, route, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		return b, json.Unmarshal(b, out)
	}
	return b, nil
}

// submit posts one job, follows its event stream to the terminal
// state, and fetches its status.
func (d *daemon) submit(pl *sweepPlan, j int, rec *span.Recorder, parent *span.Span) submission {
	job := pl.jobs[j]
	sp := rec.Start("job", parent.Context())
	defer sp.End()
	sub := submission{job: j}
	t := time.Now()
	var resp struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	if _, sub.err = d.call(http.MethodPost, "/v1/runs", job.body, &resp, rec, sp); sub.err != nil {
		return sub
	}
	if resp.ID != job.id {
		sub.err = fmt.Errorf("daemon job id %s, spec hash %s", resp.ID, job.id)
		return sub
	}
	sub.cached = resp.Cached
	if !terminal(resp.Status) {
		// The event stream ends after the job's terminal event.
		if _, sub.err = d.call(http.MethodGet, "/v1/runs/"+job.id+"/events", nil, nil, rec, sp); sub.err != nil {
			return sub
		}
	}
	sub.latMS = float64(time.Since(t).Nanoseconds()) / 1e6
	_, sub.err = d.call(http.MethodGet, "/v1/runs/"+job.id, nil, &sub.status, rec, sp)
	return sub
}

// heapMB reads the daemon's heap gauge from /metrics.json.
func (d *daemon) heapMB() (float64, error) {
	var m struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if _, err := d.call(http.MethodGet, "/metrics.json", nil, &m, nil, nil); err != nil {
		return 0, err
	}
	return m.Gauges["go.heap_alloc_bytes"] / 1e6, nil
}

// timelineDoc is the GET /v1/runs/{id}/timeline payload.
type timelineDoc struct {
	Timeline *prof.Timeline  `json:"timeline"`
	Stalls   *prof.Breakdown `json:"stall_breakdown"`
}

// jobProfiles reads, for every distinct job, the daemon's lifecycle
// trace (summing its phase and encode spans into layers) and its
// simprof timeline.
func (d *daemon) jobProfiles(pl *sweepPlan, layers map[string]float64) (map[string]*timelineDoc, error) {
	sum := map[string]float64{}
	docs := map[string]*timelineDoc{}
	for _, j := range pl.jobs {
		var tr struct {
			Events []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if _, err := d.call(http.MethodGet, "/v1/runs/"+j.id+"/trace", nil, &tr, nil, nil); err != nil {
			return nil, err
		}
		for _, e := range tr.Events {
			if e.Ph == "X" {
				sum[e.Name] += e.Dur / 1e6
			}
		}
		doc := &timelineDoc{}
		if _, err := d.call(http.MethodGet, "/v1/runs/"+j.id+"/timeline", nil, doc, nil, nil); err != nil {
			return nil, err
		}
		docs[j.id] = doc
	}
	layers["exp.warmup_s"] = sum["phase.warmup"]
	layers["exp.encode_s"] = sum["encode"]
	layers["sample.detail_s"] = sum["phase.sample.detail"]
	layers["sample.functional_s"] = sum["phase.sample.functional"]
	return docs, nil
}
