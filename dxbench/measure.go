package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dx100/internal/obs"
	"dx100/internal/obs/span"
)

// workload is one benchmark workload. pass runs one set-up, one timed
// pass and the output check of every operation in it; tr is nil for
// an untraced pass. An error means the benchmark itself could not run;
// a failed operation is counted in the pass instead.
type workload interface {
	name() string
	pass(tr *tracer) (*pass, error)
}

// passQ is the quantile over a run's passes reported for the pass
// times: wall_s, job_p50_ms, job_p95_ms and exp.ns_per_cycle.<mode>.
// Other tenants of a shared host only ever add time, in bursts that
// cover a varying share of a run, and the median pass moves with that
// share. The lower quartile stays at the quiet speed until bursts
// cover three quarters of a run, yet rests on a quarter of the passes,
// so a few lucky passes do not set it as they set the fastest.
// README.md, "Host noise", has the measurements behind the choice.
const passQ = 0.25

// traceWindow is the simprof sampling window of traced runs, in
// simulated cycles: fine enough that the shortest run still yields
// several timeline rows.
const traceWindow = 1024

// tracer is a traced pass's instrumentation: a span recorder for the
// whole pass, and a CPU profile plus heap profiles bracketing its timed
// section. cpuS is the process CPU time (user + system, from
// getrusage) over the profiled section, a figure measured apart from
// the profile to check its total against. A nil tracer is an untraced
// pass; every method is then a no-op.
type tracer struct {
	rec          *span.Recorder
	cpu          bytes.Buffer
	cpu0, cpuS   float64
	heap0, heap1 []byte
	err          error
}

func (t *tracer) recorder() *span.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// begin opens the timed section: a heap profile, then the CPU profile.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	if t.heap0, t.err = heapProfile(); t.err != nil {
		return
	}
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		t.err = fmt.Errorf("cpu profile: %w", err)
		return
	}
	t.cpu0, t.err = processCPU()
}

// end closes the timed section: the CPU profile stops, and a heap
// profile is taken after a collection so it counts every allocation.
func (t *tracer) end() {
	if t == nil || t.err != nil {
		return
	}
	cpu1, err := processCPU()
	pprof.StopCPUProfile()
	if err != nil {
		t.err = err
		return
	}
	t.cpuS = cpu1 - t.cpu0
	runtime.GC()
	t.heap1, t.err = heapProfile()
}

// pass is what one pass measured.
type pass struct {
	setupS  float64   // set-up: input generation, compilation, daemon start
	wallS   float64   // the timed pass
	allocMB float64   // heap allocated during the timed pass
	opsMS   []float64 // host latency of each operation: a run and its encoding, or a job
	// attempted and failed count operations; a run that errors or
	// fails its output check is failed.
	attempted, failed int
	digest            string // SHA-256 over the pass's Result wire forms
	speedup           float64
	layers            map[string]float64
}

// report aggregates the passes of one benchmark run.
type report struct {
	attempted, failed int
	digest            string
	endToEnd          map[string]float64
	layers            map[string]float64
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// add folds one pass's operation counts in. Results are deterministic,
// so a pass whose digest differs from the first pass's is one more
// failed operation.
func (r *report) add(p *pass, log io.Writer) {
	r.attempted += p.attempted
	r.failed += p.failed
	if r.digest == "" {
		r.digest = p.digest
	} else if p.digest != r.digest {
		fmt.Fprintf(log, "dxbench: pass digest %s differs from the first pass's %s\n", p.digest, r.digest)
		r.attempted++
		r.failed++
	}
}

// measure repeats untraced passes until budget has elapsed (at least
// one), reports the pass times at passQ and the other metrics'
// medians, and with traced set runs one more pass under spans and CPU
// and heap profiling for the per-layer metrics.
func measure(w workload, budget time.Duration, traced bool, out string, log io.Writer) (*report, error) {
	r := &report{endToEnd: map[string]float64{}, layers: map[string]float64{}}
	var passes []*pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		p, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		r.add(p, log)
		passes = append(passes, p)
		fmt.Fprintf(log, "dxbench: pass %d: setup %.3f s, wall %.3f s, %d ops, p50 %.1f ms, p95 %.1f ms\n",
			len(passes), p.setupS, p.wallS, len(p.opsMS), quantile(p.opsMS, 0.5), quantile(p.opsMS, 0.95))
	}
	fmt.Fprintf(log, "dxbench: %s: %d passes in %.1f s\n", w.name(), len(passes), time.Since(start).Seconds())
	col := func(q float64, f func(*pass) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return quantile(v, q)
	}
	r.endToEnd["wall_s"] = col(passQ, func(p *pass) float64 { return p.wallS })
	r.endToEnd["setup_s"] = col(0.5, func(p *pass) float64 { return p.setupS })
	r.endToEnd["alloc_mb"] = col(0.5, func(p *pass) float64 { return p.allocMB })
	r.endToEnd["job_p50_ms"] = col(passQ, func(p *pass) float64 { return quantile(p.opsMS, 0.5) })
	r.endToEnd["job_p95_ms"] = col(passQ, func(p *pass) float64 { return quantile(p.opsMS, 0.95) })
	r.endToEnd["dx_speedup"] = passes[0].speedup
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	r.endToEnd["max_rss_mb"] = rss
	if !traced {
		return r, nil
	}
	if err := r.traced(w, passes, out, log); err != nil {
		return nil, err
	}
	return r, nil
}

// spanLayers maps per-layer metrics to the spans whose total duration
// they report, for workloads that do not set them directly.
var spanLayers = map[string]string{
	"exp.warmup_s":        "phase.warmup",
	"exp.encode_s":        "exp.ResultJSON",
	"sample.detail_s":     "phase.sample.detail",
	"sample.functional_s": "phase.sample.functional",
}

// traced runs the traced pass and fills the per-layer metrics.
func (r *report) traced(w workload, passes []*pass, out string, log io.Writer) error {
	tr := &tracer{rec: span.NewRecorder(1 << 20)}
	defer pprof.StopCPUProfile() // a pass that failed mid-section left it running
	p, err := w.pass(tr)
	if err != nil {
		return err
	}
	if tr.err != nil {
		return tr.err
	}
	if tr.heap1 == nil {
		return fmt.Errorf("%s: traced pass never closed its timed section", w.name())
	}
	r.add(p, log)
	for k, v := range p.layers {
		r.layers[k] = v
	}
	// Simulator speed comes from the untraced passes, as wall_s does.
	for _, m := range modes {
		k := "exp.ns_per_cycle." + m
		var v []float64
		for _, up := range passes {
			if x, ok := up.layers[k]; ok {
				v = append(v, x)
			}
		}
		if len(v) > 0 {
			r.layers[k] = quantile(v, passQ)
		}
	}
	r.layers["trace.overhead_s"] = p.wallS - r.endToEnd["wall_s"]

	host, err := cpuLayers(tr.cpu.Bytes(), tr.cpuS)
	if err != nil {
		return err
	}
	alloc, err := allocLayers(tr.heap0, tr.heap1)
	if err != nil {
		return err
	}
	for k, v := range host {
		r.layers[k] = v
	}
	for k, v := range alloc {
		r.layers[k] = v
	}
	fmt.Fprintf(log, "dxbench: traced section: profile cpu %.3f s, getrusage %.3f s; profile alloc %.1f MB, TotalAlloc %.1f MB\n",
		host["profile.total_s"], tr.cpuS, alloc["profile.alloc_mb"], p.allocMB)
	if req := r.layers["dram.requests"]; req > 0 {
		r.layers["dram.ns_per_req"] = r.layers["dram.host_s"] * 1e9 / req
	}

	totals := spanTotals(tr.rec.Events())
	for metric, name := range spanLayers {
		if _, ok := r.layers[metric]; !ok {
			r.layers[metric] = totals[name].durS
		}
	}
	printSpans(log, totals)
	var trace bytes.Buffer
	if err := tr.rec.WriteChrome(&trace); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-%d", w.name(), os.Getpid())
	writeOut(out, base+".trace.json", trace.Bytes(), log)
	writeOut(out, base+".cpu.pprof", tr.cpu.Bytes(), log)
	writeOut(out, base+".heap.pprof", tr.heap1, log)
	return nil
}

func heapProfile() ([]byte, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&b, 0); err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	return b.Bytes(), nil
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	count       int
	durS, selfS float64
}

// spanTotals sums each span name's duration and self time: its
// duration minus the part of it its direct children cover. Children
// may overlap (serve-sweep's two clients), so the covered part is the
// length of the union of their intervals.
func spanTotals(events []obs.Event) map[string]spanTotal {
	type interval struct{ lo, hi int64 } // µs
	children := map[int64][]interval{}   // parent span id -> child intervals
	for _, e := range events {
		if e.Kind == obs.EvSpan {
			lo := int64(e.Cycle)
			children[e.Args[3]] = append(children[e.Args[3]], interval{lo, lo + e.Args[4]})
		}
	}
	out := map[string]spanTotal{}
	for _, e := range events {
		if e.Kind != obs.EvSpan {
			continue
		}
		kids := children[e.Args[2]]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		var covered, end int64
		for _, k := range kids {
			if k.lo > end {
				end = k.lo
			}
			if k.hi > end {
				covered += k.hi - end
				end = k.hi
			}
		}
		t := out[e.Src]
		t.count++
		t.durS += float64(e.Args[4]) / 1e6
		t.selfS += float64(e.Args[4]-covered) / 1e6
		out[e.Src] = t
	}
	return out
}

// printSpans writes the traced pass's span table, largest self time
// first.
func printSpans(w io.Writer, totals map[string]spanTotal) {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := totals[names[i]], totals[names[j]]
		if a.selfS != b.selfS {
			return a.selfS > b.selfS
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-36s %7s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		t := totals[n]
		fmt.Fprintf(w, "%-36s %7d %10.4f %10.4f\n", n, t.count, t.durS, t.selfS)
	}
}

// maxRSSMB reads the process's peak resident set (VmHWM).
func maxRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("max_rss_mb: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("max_rss_mb: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("max_rss_mb: no VmHWM in /proc/self/status")
}

// processCPU returns the CPU time, user plus system, the process has
// used so far, in seconds.
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	sec := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime), nil
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for none.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// allocDelta measures heap bytes allocated since a ReadMemStats
// snapshot, in MB.
func allocDelta(before *runtime.MemStats) float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}
