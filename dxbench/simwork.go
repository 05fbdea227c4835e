package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dx100/internal/exp"
	"dx100/internal/loopir"
	"dx100/internal/obs/span"
	"dx100/internal/sim"
	"dx100/internal/workloads"
	"dx100/internal/workloads/pattern"
)

// simWorkload runs one freshly built instance per mode through
// exp.RunInstanceOpts: the serial engine, cold caches (exp.Default, no
// WarmLLC, no Shards). A run mutates its instance's memory, so every
// pass builds new ones.
type simWorkload struct {
	wname string
	modes []exp.Mode
	build func() (*workloads.Instance, error)
	// want is the final memory the loopir interpreter computes from a
	// pristine instance, filled by the first pass; refS is what that
	// took.
	want map[string][]uint64
	refS float64
}

func (w *simWorkload) name() string { return w.wname }

// gsShape sizes one gather-scatter pattern entry: count iterations of
// patLen indices, iteration i shifted by i*delta. Each index is a
// distinct residue mod delta plus delta times a uniform draw from
// [0, window), so the indices are uniform over window*delta elements
// and no two (index, iteration) pairs hit the same element.
type gsShape struct {
	patLen        int
	delta         int64
	window, count int64
}

// gsShapes are the gather, scatter and gs entry shapes per size. The
// full gather and scatter each span 1.7M elements (13.6 MB), larger
// than either system's LLC (10 MB baseline, 8 MB DX100).
var gsShapes = map[size][3]gsShape{
	sizeFull:  {{4096, 4096, 400, 2}, {4096, 4096, 400, 1}, {2048, 4096, 128, 1}},
	sizeSmall: {{512, 1024, 64, 2}, {512, 1024, 64, 2}, {256, 1024, 32, 2}},
}

// gsPattern generates the gather-scatter pattern file for a seed: a
// gather, a scatter and a gs entry. Scatter targets never collide
// within an entry, so every interleaving of the cores' stores leaves
// the same memory (README.md, "Collision-free scatters").
func gsPattern(seed int64, sz size) *pattern.File {
	rng := rand.New(rand.NewSource(seed))
	sh := gsShapes[sz]
	pat := func(s gsShape) []int64 {
		out := make([]int64, s.patLen)
		for j, r := range rng.Perm(int(s.delta))[:s.patLen] {
			out[j] = int64(r) + s.delta*rng.Int63n(s.window)
		}
		return out
	}
	return &pattern.File{
		Name: "gather-scatter",
		Entries: []pattern.Entry{
			{Name: "gather", Kernel: "gather", Pattern: pat(sh[0]), Delta: sh[0].delta, Count: sh[0].count},
			{Name: "scatter", Kernel: "scatter", Pattern: pat(sh[1]), Delta: sh[1].delta, Count: sh[1].count},
			{Name: "gs", Kernel: "gs", Gather: pat(sh[2]), Scatter: pat(sh[2]), Delta: sh[2].delta, Count: sh[2].count},
		},
	}
}

func newGatherScatter(seed int64, sz size) *simWorkload {
	return &simWorkload{
		wname: "gather-scatter",
		modes: []exp.Mode{exp.Baseline, exp.DMP, exp.DX},
		build: func() (*workloads.Instance, error) {
			return pattern.Compile(gsPattern(seed, sz), 1)
		},
	}
}

// newGraphSkew is PageRank-pull over a power-law graph of 4096 nodes
// (exponent 2.2, clustering 0.25, mean degree 15) whose generator seed
// comes from the benchmark seed.
func newGraphSkew(seed int64, sz size) *simWorkload {
	cfg := workloads.GraphConfig{
		Kernel: "pr", Dir: "pull", Exponent: 2.2, Clustering: 0.25, Nodes: 4096,
		// Never zero, which would select the generator's default seed.
		Seed: seed<<1 | 1,
	}
	if sz == sizeSmall {
		cfg.Nodes = 1024
	}
	return &simWorkload{
		wname: "graph-skew",
		modes: []exp.Mode{exp.Baseline, exp.DX},
		build: func() (*workloads.Instance, error) {
			return workloads.BuildGraph(cfg, 1), nil
		},
	}
}

func (w *simWorkload) pass(tr *tracer) (*pass, error) {
	rec := tr.recorder()
	p := &pass{layers: map[string]float64{}}
	root := rec.Start("pass "+w.wname, span.Context{})
	defer root.End()

	t := time.Now()
	build := rec.Start("workloads.build", root.Context())
	insts := make([]*workloads.Instance, len(w.modes))
	for i := range insts {
		inst, err := w.build()
		if err != nil {
			build.End()
			return nil, fmt.Errorf("%s: build: %w", w.wname, err)
		}
		insts[i] = inst
	}
	build.End()
	p.setupS = time.Since(t).Seconds()
	p.layers["workloads.build_s"] = p.setupS

	if w.want == nil {
		t := time.Now()
		ref := rec.Start("check.reference", root.Context())
		want, err := reference(insts[0], rec, ref)
		ref.End()
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", w.wname, err)
		}
		w.want, w.refS = want, time.Since(t).Seconds()
	}

	// The timed pass: each mode's simulation plus its Result encoding,
	// from a collected heap so earlier passes' garbage is not charged
	// to it.
	runtime.GC()
	tr.begin()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	timed := rec.Start("timed", root.Context())
	start := time.Now()
	runs := make([]run, len(w.modes))
	wire := make([][]byte, len(w.modes))
	errs := make([]error, len(w.modes))
	for i, mode := range w.modes {
		t := time.Now()
		runs[i], errs[i] = simulate(insts[i], mode, rec, timed)
		if errs[i] == nil {
			wire[i], errs[i] = encode(runs[i].res, rec, timed)
		}
		p.opsMS = append(p.opsMS, float64(time.Since(t).Nanoseconds())/1e6)
	}
	p.wallS = time.Since(start).Seconds()
	timed.End()
	p.allocMB = allocDelta(&ms)
	tr.end()

	// Output check, outside the timing.
	t = time.Now()
	check := rec.Start("check.compare", root.Context())
	var ok []run
	for i, mode := range w.modes {
		p.attempted++
		if errs[i] != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "dxbench: %s/%s: %v\n", w.wname, mode, errs[i])
			continue
		}
		if n := mismatches(insts[i], w.want); n > 0 {
			p.failed++
			fmt.Fprintf(os.Stderr, "dxbench: %s/%s: %d words differ from the loopir interpreter\n", w.wname, mode, n)
			continue
		}
		ok = append(ok, runs[i])
	}
	check.End()
	p.layers["loopir.check_s"] = w.refS + time.Since(t).Seconds()
	p.digest = digest(wire)
	p.speedup = speedup(ok)
	mechanisms(p.layers, ok)
	return p, nil
}

// simulate runs one instance in one mode. Traced, it also profiles
// the run with simprof (stall breakdown, tile utilization) and cuts it
// at its hooks into consecutive spans: exp.build until warm-up begins,
// phase.warmup, sim.Engine.Run until OnEngineDone, then exp.collect.
func simulate(inst *workloads.Instance, mode exp.Mode, rec *span.Recorder, parent *span.Span) (run, error) {
	sp := rec.Start("exp.RunInstanceOpts "+mode.String(), parent.Context())
	defer sp.End()
	r := run{skipped: -1}
	cur := rec.Start("exp.build", sp.Context())
	next := func(name string) {
		cur.End()
		cur = rec.Start(name, sp.Context())
	}
	opts := exp.RunOptions{
		OnEngineDone: func(e *sim.Engine) {
			_, skipped := e.FastForwarded()
			r.skipped = float64(skipped)
			next("exp.collect")
		},
	}
	if rec != nil {
		opts.ProfileWindow = traceWindow
		opts.OnPhase = func(name string, begin bool) {
			if begin {
				next("phase." + name)
			} else {
				next("sim.Engine.Run")
			}
		}
	}
	t := time.Now()
	res, err := exp.RunInstanceOpts(inst, exp.Default(mode), opts)
	r.hostS = time.Since(t).Seconds()
	cur.End()
	r.res = res
	return r, err
}

// encode renders the Result wire form, without the simprof profile a
// traced run adds, so traced and untraced digests agree.
func encode(res exp.Result, rec *span.Recorder, parent *span.Span) ([]byte, error) {
	res.Timeline, res.Stalls = nil, nil
	sp := rec.Start("exp.ResultJSON", parent.Context())
	defer sp.End()
	return exp.ResultJSON(res)
}

// reference computes the memory a correct run leaves: every kernel
// array read from a pristine instance, then the kernels interpreted in
// order.
func reference(inst *workloads.Instance, rec *span.Recorder, parent *span.Span) (map[string][]uint64, error) {
	state := map[string][]uint64{}
	for _, k := range inst.Kernels {
		for name, info := range k.Arrays {
			if _, ok := state[name]; ok {
				continue
			}
			vals := make([]uint64, info.Len)
			for i := range vals {
				vals[i] = inst.Read(name, i)
			}
			state[name] = vals
		}
	}
	for _, k := range inst.Kernels {
		sp := rec.Start("loopir.Interpret", parent.Context())
		err := loopir.Interpret(k, &loopir.Env{Arrays: state, Params: k.Params})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("interpret %s: %w", k.Name, err)
		}
	}
	return state, nil
}

// mismatches counts the words of inst that differ from want.
func mismatches(inst *workloads.Instance, want map[string][]uint64) int {
	n := 0
	for name, vals := range want {
		for i, w := range vals {
			if inst.Read(name, i) != w {
				n++
			}
		}
	}
	return n
}
