package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"dx100/internal/exp"
)

// run is one simulation as the benchmark saw it: its Result and the
// host-side figures the Result does not carry.
type run struct {
	res     exp.Result
	hostS   float64 // host time of the simulation; 0 when not measured
	skipped float64 // cycles skipped by fast-forward; -1 when not observed
}

// modeSums pools the counters of one mode's full-detail runs.
type modeSums struct {
	n                    int
	cycles, instr, hostS float64
	hostCycles           float64 // cycles of the runs with a host time
	skipped, ffCycles    float64 // fast-forward skips, and cycles of the runs that report them
	bwWeighted           float64 // sum of BWUtil x dram.cycles
	stats                map[string]float64
	stalls               map[string]float64
	tileUtil             []float64
}

// mechanisms folds a pass's runs into the per-layer mechanism
// metrics. Counters of one mode are summed over its runs before ratios
// are taken, so serve-sweep's many jobs report pooled ratios. Sampled
// runs contribute only the sample.* metrics: their counters cover the
// detailed windows alone.
func mechanisms(layers map[string]float64, runs []run) {
	sums := map[exp.Mode]*modeSums{}
	var windows, detailed, estimated float64
	for _, r := range runs {
		if s := r.res.Sampling; s != nil {
			windows += float64(s.Windows)
			detailed += float64(s.DetailedCycles)
			estimated += float64(s.EstimatedCycles)
			continue
		}
		m := sums[r.res.Mode]
		if m == nil {
			m = &modeSums{stats: map[string]float64{}, stalls: map[string]float64{}}
			sums[r.res.Mode] = m
		}
		m.n++
		cyc := float64(r.res.Cycles)
		m.cycles += cyc
		m.instr += r.res.Instructions
		if r.hostS > 0 {
			m.hostS += r.hostS
			m.hostCycles += cyc
		}
		if r.skipped >= 0 {
			m.skipped += r.skipped
			m.ffCycles += cyc
		}
		if r.res.Stats != nil {
			for _, name := range r.res.Stats.Names() {
				m.stats[counterKey(name)] += r.res.Stats.Get(name)
			}
			m.bwWeighted += r.res.BWUtil * r.res.Stats.Get("dram.cycles")
		}
		if st := r.res.Stalls; st != nil {
			for _, core := range st.Cores {
				for i, v := range core {
					if i < len(st.Buckets) {
						m.stalls[st.Buckets[i]] += float64(v)
					}
				}
			}
		}
		if tl := r.res.Timeline; tl != nil {
			for _, s := range tl.Series {
				if s.Name == "dx100.tile_util" {
					m.tileUtil = append(m.tileUtil, s.Values...)
				}
			}
		}
	}
	if estimated > 0 {
		layers["sample.windows"] = windows
		layers["sample.detailed_frac"] = detailed / estimated
	}
	var requests float64
	for mode, m := range sums {
		name := mode.String()
		layers["sim.cycles."+name] = m.cycles
		layers["cpu.instructions."+name] = m.instr
		layers["cpu.spin_frac."+name] = ratio(m.stats["core.spin_cycles"], m.stats["core.cycles"])
		if m.hostCycles > 0 {
			layers["exp.ns_per_cycle."+name] = m.hostS * 1e9 / m.hostCycles
		}
		if m.ffCycles > 0 {
			layers["sim.ff_skip_frac."+name] = m.skipped / m.ffCycles
		}
		requests += m.stats["dram.reads"] + m.stats["dram.writes"]
		switch mode {
		case exp.Baseline:
			layers["cache.l1d_mpki"] = ratio(1000*m.stats["l1d.misses"], m.instr)
			layers["cache.llc_hit"] = ratio(m.stats["llc.accesses"]-m.stats["llc.misses"], m.stats["llc.accesses"])
			var total float64
			for _, v := range m.stalls {
				total += v
			}
			for b, v := range m.stalls {
				layers["cpu.stall."+b] = v / total
			}
		case exp.DMP:
			layers["prefetch.issued"] = m.stats["dmp.issued"]
			layers["prefetch.l2_hit"] = ratio(m.stats["l2.hits"], m.stats["l2.accesses"])
		case exp.DX:
			rowAcc := m.stats["dram.rowhits"] + m.stats["dram.rowmisses"] + m.stats["dram.rowconflicts"]
			layers["dram.row_hit"] = ratio(m.stats["dram.rowhits"], rowAcc)
			layers["dram.bw_util"] = ratio(m.bwWeighted, m.stats["dram.cycles"])
			layers["dx100.instructions"] = m.stats["dx100.instructions"]
			layers["dx100.words_per_instr"] = ratio(m.stats["dx100.words"], m.stats["dx100.instructions"])
			layers["dx100.coalesce"] = ratio(m.stats["dx100.rt.coalesced"], m.stats["dx100.rt.inserts"])
			layers["dx100.tile_util"] = mean(m.tileUtil)
		}
	}
	layers["dram.requests"] = requests
}

// counterKey folds per-instance counters together: "core3.cycles"
// becomes "core.cycles" and "dx100.0.rt.inserts" "dx100.rt.inserts".
func counterKey(name string) string {
	if rest, ok := strings.CutPrefix(name, "dx100."); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 && isDigits(rest[:i]) {
			return "dx100." + rest[i+1:]
		}
	}
	if rest, ok := strings.CutPrefix(name, "core"); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 && isDigits(rest[:i]) {
			return "core." + rest[i+1:]
		}
	}
	return name
}

func isDigits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return s != ""
}

// speedup is simulated baseline cycles over DX100 cycles, pooled over
// the full-detail runs of each mode; 0 when either is missing.
func speedup(runs []run) float64 {
	var base, dx float64
	for _, r := range runs {
		if r.res.Sampling != nil {
			continue
		}
		switch r.res.Mode {
		case exp.Baseline:
			base += float64(r.res.Cycles)
		case exp.DX:
			dx += float64(r.res.Cycles)
		}
	}
	return ratio(base, dx)
}

// digest is the hex SHA-256 over Result wire forms in order, each
// length-prefixed so boundaries cannot shift.
func digest(wire [][]byte) string {
	h := sha256.New()
	for _, b := range wire {
		var n [8]byte
		for i := range n {
			n[i] = byte(len(b) >> (8 * i))
		}
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}
