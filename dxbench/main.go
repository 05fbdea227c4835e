// Command dxbench is the repository benchmark: it generates a
// workload's inputs from a seed, runs them through the public APIs of
// the workloads, workloads/pattern, exp and serve packages, checks
// every operation's output against the loopir reference interpreter,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (timed passes with
// tracing off); with -trace 1 a separate traced pass follows and the
// metrics are the per-layer set. README.md documents every metric and
// workload; build and run through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain parses the flags, measures the workload and prints the report.
// It returns the process exit code: 0 when a report was printed, even
// one with failed operations; 2 for usage errors; 1 when the benchmark
// itself could not run.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: gather-scatter, graph-skew or serve-sweep")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to repeat timed passes")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "dxbench: -trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, sizeFull)
	if err != nil {
		fmt.Fprintln(stderr, "dxbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rep, err := measure(w, budget, *trace == 1, outDir(), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dxbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s %s\n", *name, rep.digest)
	b, err := json.Marshal(rep.summary(*trace == 1))
	if err != nil {
		fmt.Fprintln(stderr, "dxbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// outDir is where traced runs leave their trace and profiles: run.sh
// points it into the build directory inside the checkout.
func outDir() string {
	if d := os.Getenv("DXBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// size selects input sizes: sizeFull for measurement, sizeSmall for
// the benchmark's own tests.
type size int

const (
	sizeFull size = iota
	sizeSmall
)

// newWorkload returns the named workload with its inputs drawn from
// seed.
func newWorkload(name string, seed int64, sz size) (workload, error) {
	switch name {
	case "gather-scatter":
		return newGatherScatter(seed, sz), nil
	case "graph-skew":
		return newGraphSkew(seed, sz), nil
	case "serve-sweep":
		return newServeSweep(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want gather-scatter, graph-skew or serve-sweep)", name)
}

// summary is the JSON object printed as the last line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the report's end-to-end or per-layer metrics. A
// metric the workload does not produce reads 0 (README.md lists which
// workload loads which layer); non-finite values, which JSON cannot
// carry, also read 0.
func (r *report) summary(perLayer bool) summary {
	defs, vals := endToEnd, r.endToEnd
	if perLayer {
		defs, vals = perLayerMetrics(), r.layers
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	return summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// writeOut writes one traced-run artifact into dir, reporting (not
// failing on) errors: the artifacts are for reading in Perfetto or
// go tool pprof, not inputs to any metric.
func writeOut(dir, file string, data []byte, stderr io.Writer) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "dxbench:", err)
		return
	}
	p := filepath.Join(dir, file)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "dxbench:", err)
		return
	}
	fmt.Fprintln(stderr, "dxbench: wrote", p)
}
