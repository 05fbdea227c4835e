package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"dx100/internal/exp"
	"dx100/internal/workloads"
	"dx100/internal/workloads/pattern"
)

var workloadNames = []string{"gather-scatter", "graph-skew", "serve-sweep"}

// onePass runs a single untraced pass of a workload at its smallest
// size.
func onePass(t *testing.T, name string, seed int64) *pass {
	t.Helper()
	w, err := newWorkload(name, seed, sizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// Every workload finishes at its smallest size and every operation
// passes its output check.
func TestWorkloadsPassCheck(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			p := onePass(t, name, 1)
			if p.attempted == 0 || p.failed != 0 {
				t.Fatalf("attempted %d, failed %d", p.attempted, p.failed)
			}
			if p.wallS <= 0 || p.setupS <= 0 || p.speedup <= 0 {
				t.Fatalf("wall %v setup %v speedup %v", p.wallS, p.setupS, p.speedup)
			}
		})
	}
}

// The same seed gives the same digest; a different seed gives
// different inputs, and so a different digest.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b, c := onePass(t, name, 7), onePass(t, name, 7), onePass(t, name, 8)
			if a.digest != b.digest {
				t.Fatalf("seed 7 digests differ: %s vs %s", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Fatalf("seeds 7 and 8 share digest %s", a.digest)
			}
		})
	}
	// The inputs themselves, not only the results, depend on the seed.
	p7, _ := gsPattern(7, sizeSmall).Canonical()
	p8, _ := gsPattern(8, sizeSmall).Canonical()
	if bytes.Equal(p7, p8) {
		t.Fatal("gather-scatter pattern files equal across seeds")
	}
	g7, _ := newGraphSkew(7, sizeSmall).build()
	g8, _ := newGraphSkew(8, sizeSmall).build()
	if g7.Checksum("H", "B") == g8.Checksum("H", "B") {
		t.Fatal("graph-skew CSR equal across seeds")
	}
	s7, _ := planSweep(7, sizeSmall)
	s8, _ := planSweep(8, sizeSmall)
	if s7.jobs[0].id == s8.jobs[0].id {
		t.Fatal("serve-sweep jobs equal across seeds")
	}
}

// A scatter whose targets collide has no single correct result: on a
// 4-core baseline the cores' stores to one element race, and the final
// memory differs from the sequential interpreter. The output check
// must count that run as failed, which shows the oracle catches a real
// divergence rather than only avoiding it.
func TestCollidingScatterFails(t *testing.T) {
	targets := make([]int64, 256)
	for i := range targets {
		targets[i] = int64(i) * 8 // one element per cache line
	}
	f := &pattern.File{Name: "collide", Entries: []pattern.Entry{
		{Kernel: "scatter", Pattern: targets, Count: 64}, // delta 0: every iteration rewrites the same targets
	}}
	w := &simWorkload{
		wname: "colliding-scatter",
		modes: []exp.Mode{exp.Baseline},
		build: func() (*workloads.Instance, error) { return pattern.Compile(f, 1) },
	}
	p, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != 1 || p.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want the colliding baseline run counted as failed", p.attempted, p.failed)
	}
}

// The CPU profile of real passes decodes to a total that matches the
// process CPU time measured apart from the profiler, its per-module
// host times add up to that total, and no dx100/internal frame is
// charged to "other". A total that disagrees with the process CPU time
// is rejected.
func TestLayerAttributionAddsUp(t *testing.T) {
	tr := &tracer{}
	tr.begin()
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, sizeSmall)
		if err != nil {
			tr.end()
			t.Fatal(err)
		}
		if _, err := w.pass(nil); err != nil {
			tr.end()
			t.Fatal(err)
		}
	}
	tr.end()
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	host, err := cpuLayers(tr.cpu.Bytes(), tr.cpuS)
	if err != nil {
		t.Fatal(err)
	}
	var sum, modSum float64
	for k, v := range host {
		if k == "profile.total_s" {
			continue
		}
		sum += v
		if k != "runtime.gc_s" && k != "other.host_s" {
			modSum += v
		}
	}
	total := host["profile.total_s"]
	if total <= 0 || math.Abs(sum-total) > 1e-9 {
		t.Fatalf("layers add up to %v s, profile total %v s", sum, total)
	}
	if modSum <= 0 {
		t.Fatalf("no time charged to any module: %v", host)
	}
	if _, err := cpuLayers(tr.cpu.Bytes(), 2*total+1); err == nil {
		t.Fatal("a profile total far from the process cpu time was accepted")
	}

	for _, data := range [][]byte{tr.cpu.Bytes(), tr.heap1} {
		p, err := parseProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p.samples {
			if p.bucketOf(s) != "other" {
				continue
			}
			for _, loc := range s.locs {
				for _, fn := range p.funcs[loc] {
					if moduleOf(fn) != "" {
						t.Fatalf("%s charged to other", fn)
					}
				}
			}
		}
	}
	alloc, err := allocLayers(tr.heap0, tr.heap1)
	if err != nil {
		t.Fatal(err)
	}
	if alloc["profile.alloc_mb"] <= 0 {
		t.Fatalf("no allocation between heap profiles: %v", alloc)
	}
}

// Every dx100/internal package is a module that host time and
// allocations are charged to.
func TestModulesCoverInternal(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range modules {
		listed[m] = true
	}
	for _, e := range entries {
		if e.IsDir() && !listed[e.Name()] {
			t.Errorf("internal/%s is not in modules", e.Name())
		}
	}
}

// Samples are charged to the innermost dx100/internal frame; stacks
// without one go to runtime.gc when wholly in the runtime and to other
// otherwise.
func TestBucketOf(t *testing.T) {
	p := &profile{funcs: map[uint64][]string{
		1: {"runtime.duffcopy"},
		2: {"dx100/internal/dram.Coord.Slice", "dx100/internal/dram.(*channel).tick"}, // inlined, innermost first
		3: {"dx100/internal/sim.(*Engine).Run"},
		4: {"runtime.gcBgMarkWorker"},
		5: {"main.main"},
		6: {"dx100/internal/workloads/pattern.Compile"},
		7: {"dx100/internal/unlisted.F"}, // a package missing from modules
	}}
	cases := []struct {
		locs []uint64
		want string
	}{
		{[]uint64{1, 2, 3}, "dram"},
		{[]uint64{3}, "sim"},
		{[]uint64{1, 4}, "runtime.gc"},
		{[]uint64{1, 5}, "other"},
		{[]uint64{6, 5}, "workloads"},
		{[]uint64{7, 3}, "other"},
	}
	for _, c := range cases {
		if got := p.bucketOf(profSample{locs: c.locs}); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.locs, got, c.want)
		}
	}
}

// The JSON line matches the output contract: exactly the end-to-end
// metrics untraced, exactly the per-layer metrics traced.
func TestOutputContract(t *testing.T) {
	out := t.TempDir()
	for _, traced := range []bool{false, true} {
		w, err := newWorkload("graph-skew", 3, sizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := measure(w, 0, traced, out, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(rep.summary(traced))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("keys %v, want correct/attempted/failed/metrics", got)
		}
		var s summary
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayerMetrics()
		}
		if !s.Correct || s.Failed != 0 || s.Attempted == 0 || len(s.Metrics) != len(want) {
			t.Fatalf("traced %v: %+v", traced, s)
		}
		for _, d := range want {
			if m, ok := s.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Fatalf("traced %v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
			}
		}
	}
	if code := benchMain([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

// fakeWorkload's pass n (from 1) takes n seconds, set-up and timed
// pass alike, and holds one operation as long as the pass.
type fakeWorkload struct{ n int }

func (f *fakeWorkload) name() string { return "fake" }
func (f *fakeWorkload) pass(*tracer) (*pass, error) {
	time.Sleep(time.Millisecond)
	f.n++
	v := float64(f.n)
	return &pass{setupS: v, wallS: v, opsMS: []float64{v * 1000}, attempted: 1, digest: "d"}, nil
}

// The pass times are the lower quartile over the passes; setup_s is
// the median.
func TestPassTimeStatistic(t *testing.T) {
	w := &fakeWorkload{}
	r, err := measure(w, 20*time.Millisecond, false, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if w.n < 5 {
		t.Fatalf("only %d passes", w.n)
	}
	n := float64(w.n)
	q1, med := 1+0.25*(n-1), 1+0.5*(n-1)
	e := r.endToEnd
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*b }
	if !near(e["wall_s"], q1) || !near(e["job_p50_ms"], q1*1000) || !near(e["job_p95_ms"], q1*1000) || !near(e["setup_s"], med) {
		t.Errorf("%d passes: wall_s %v, job_p50_ms %v, job_p95_ms %v, setup_s %v; want %v s, %v ms, setup %v s",
			w.n, e["wall_s"], e["job_p50_ms"], e["job_p95_ms"], e["setup_s"], q1, q1*1000, med)
	}
}

// BENCHMARK.json lists the same metrics, with the same units, as the
// catalogue the benchmark prints.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalogue %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayerMetrics())
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("workloads %v, want %v", spec.Workloads, workloadNames)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}
