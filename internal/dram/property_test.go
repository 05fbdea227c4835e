package dram

import (
	"math/rand"
	"testing"

	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// Property tests: drive the memory system with randomized request
// streams and check the JEDEC protocol invariants directly on the
// emitted command trace, rather than trusting the scheduler's own
// bookkeeping — tRP and tRCD per bank, tRAS before precharge, tRTP
// after a read and tWR after a write before precharge, tCCD_L within a
// bank group vs tCCD_S across, at most four ACTs in any tFAW window,
// and a request buffer that never exceeds its capacity. The checker
// consumes the obs trace sink — the same event stream -trace files and
// the golden-trace test are built from — so the tests also pin the
// sink's coordinate encoding.

// coordOf rebuilds the DRAM coordinates from a command event's
// positional args (see obs.EvDRAMAct's schema).
func coordOf(e obs.Event) Coord {
	return Coord{
		Channel:   int(e.Args[0]),
		Rank:      int(e.Args[1]),
		BankGroup: int(e.Args[2]),
		Bank:      int(e.Args[3]),
		Row:       int(e.Args[4]),
	}
}

// dcOf returns the DRAM cycle a command event issued at.
func dcOf(e obs.Event) uint64 {
	if e.Kind == obs.EvDRAMRefresh {
		return uint64(e.Args[1])
	}
	return uint64(e.Args[5])
}

// newDRAMSink returns a sink large enough to hold every command of a
// property-test stream without ring overwrites.
func newDRAMSink() *obs.Sink {
	s := obs.NewSink(1 << 18)
	s.SetMask(obs.MaskDRAM)
	return s
}

// driveRandom pushes nReqs random line requests through a fresh
// System, submitting random-size bursts as buffer space allows, and
// returns the resulting command trace.
func driveRandom(t *testing.T, p Params, seed int64, nReqs int) []obs.Event {
	t.Helper()
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	stats := sim.NewStats()
	sys := NewSystem(eng, p, stats, "dram.")
	sink := newDRAMSink()
	sys.AttachTrace(sink)
	rng := rand.New(rand.NewSource(seed))
	remaining, inflight := nReqs, 0
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for burst := rng.Intn(4); burst > 0 && remaining > 0; burst-- {
			addr := memspace.LineAddr(memspace.PAddr(rng.Int63n(1 << 26)))
			kind := Read
			if rng.Intn(3) == 0 {
				kind = Write
			}
			r := &Request{Addr: addr, Kind: kind, OnDone: func(sim.Cycle) { inflight-- }}
			if !sys.Submit(r) {
				break
			}
			inflight++
			remaining--
			if q := sys.QueueLen(addr); q > p.RequestBuffer {
				t.Fatalf("request buffer holds %d entries, capacity %d", q, p.RequestBuffer)
			}
		}
		return remaining > 0 || inflight > 0
	}))
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if remaining != 0 || inflight != 0 {
		t.Fatalf("stream not drained: %d unsubmitted, %d in flight", remaining, inflight)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("trace ring overwrote %d events; grow newDRAMSink", sink.Dropped())
	}
	return sink.Events()
}

// checkProtocol walks a command trace asserting every timing
// invariant; it returns the number of column commands seen.
func checkProtocol(t *testing.T, p Params, trace []obs.Event) (casCount int) {
	t.Helper()
	type bankKey struct{ ch, slice int }
	type bgKey struct{ ch, rank, bg int }
	lastACT := map[bankKey]uint64{}
	lastPRE := map[bankKey]uint64{}
	lastRD := map[bankKey]uint64{}
	lastWREnd := map[bankKey]uint64{} // write burst completion: issue + CWL + tBURST
	lastCASAny := map[int]uint64{}
	lastCASBG := map[bgKey]uint64{}
	seenACT := map[bankKey]bool{}
	seenPRE := map[bankKey]bool{}
	seenRD := map[bankKey]bool{}
	seenWR := map[bankKey]bool{}
	seenCASAny := map[int]bool{}
	seenCASBG := map[bgKey]bool{}
	actTimes := map[int][]uint64{}
	for i, e := range trace {
		c, dc := coordOf(e), dcOf(e)
		bk := bankKey{c.Channel, c.Slice(&p)}
		switch e.Kind {
		case obs.EvDRAMAct:
			if seenPRE[bk] && dc < lastPRE[bk]+uint64(p.TRP) {
				t.Errorf("cmd %d: ACT ch%d slice%d at %d violates tRP=%d (PRE at %d)",
					i, bk.ch, bk.slice, dc, p.TRP, lastPRE[bk])
			}
			lastACT[bk] = dc
			seenACT[bk] = true
			actTimes[c.Channel] = append(actTimes[c.Channel], dc)
		case obs.EvDRAMPre:
			if !seenACT[bk] {
				t.Errorf("cmd %d: PRE ch%d slice%d with no prior ACT", i, bk.ch, bk.slice)
				continue
			}
			if dc < lastACT[bk]+uint64(p.TRAS) {
				t.Errorf("cmd %d: PRE ch%d slice%d at %d violates tRAS=%d (ACT at %d)",
					i, bk.ch, bk.slice, dc, p.TRAS, lastACT[bk])
			}
			if seenRD[bk] && dc < lastRD[bk]+uint64(p.TRTP) {
				t.Errorf("cmd %d: PRE ch%d slice%d at %d violates tRTP=%d (RD at %d)",
					i, bk.ch, bk.slice, dc, p.TRTP, lastRD[bk])
			}
			if seenWR[bk] && dc < lastWREnd[bk]+uint64(p.TWR) {
				t.Errorf("cmd %d: PRE ch%d slice%d at %d violates tWR=%d (WR burst ended %d)",
					i, bk.ch, bk.slice, dc, p.TWR, lastWREnd[bk])
			}
			lastPRE[bk] = dc
			seenPRE[bk] = true
		case obs.EvDRAMRead, obs.EvDRAMWrite:
			casCount++
			if !seenACT[bk] {
				t.Errorf("cmd %d: CAS ch%d slice%d with no prior ACT", i, bk.ch, bk.slice)
				continue
			}
			if dc < lastACT[bk]+uint64(p.TRCD) {
				t.Errorf("cmd %d: CAS ch%d slice%d at %d violates tRCD=%d (ACT at %d)",
					i, bk.ch, bk.slice, dc, p.TRCD, lastACT[bk])
			}
			if seenCASAny[c.Channel] && dc < lastCASAny[c.Channel]+uint64(p.TCCDS) {
				t.Errorf("cmd %d: CAS ch%d at %d violates tCCD_S=%d (CAS at %d)",
					i, c.Channel, dc, p.TCCDS, lastCASAny[c.Channel])
			}
			gk := bgKey{c.Channel, c.Rank, c.BankGroup}
			if seenCASBG[gk] && dc < lastCASBG[gk]+uint64(p.TCCDL) {
				t.Errorf("cmd %d: CAS ch%d bg%d at %d violates tCCD_L=%d (CAS at %d)",
					i, c.Channel, gk.bg, dc, p.TCCDL, lastCASBG[gk])
			}
			if e.Kind == obs.EvDRAMRead {
				lastRD[bk] = dc
				seenRD[bk] = true
			} else {
				lastWREnd[bk] = dc + uint64(p.CWL) + uint64(p.TBURST)
				seenWR[bk] = true
			}
			lastCASAny[c.Channel] = dc
			seenCASAny[c.Channel] = true
			lastCASBG[gk] = dc
			seenCASBG[gk] = true
		case obs.EvDRAMRefresh:
			// All-bank refresh only tightens subsequent constraints;
			// nothing to check here.
		}
	}
	for ch, acts := range actTimes {
		for i := 4; i < len(acts); i++ {
			if acts[i] < acts[i-4]+uint64(p.TFAW) {
				t.Errorf("ch%d: 5 ACTs within tFAW=%d window: %v", ch, p.TFAW, acts[i-4:i+1])
			}
		}
	}
	return casCount
}

func TestProtocolInvariantsRandomStreams(t *testing.T) {
	p := DDR4_3200()
	for seed := int64(1); seed <= 5; seed++ {
		const n = 1200
		trace := driveRandom(t, p, seed, n)
		if cas := checkProtocol(t, p, trace); cas != n {
			t.Fatalf("seed %d: %d column commands for %d requests", seed, cas, n)
		}
	}
}

func TestProtocolInvariantsUnderRefreshPressure(t *testing.T) {
	// Shrink the refresh interval so many refreshes land inside the
	// stream, exercising the refresh/ACT/CAS interleaving.
	p := DDR4_3200()
	p.TREFI = 500
	p.TRFC = 100
	trace := driveRandom(t, p, 42, 800)
	refreshes := 0
	for _, e := range trace {
		if e.Kind == obs.EvDRAMRefresh {
			refreshes++
		}
	}
	if refreshes == 0 {
		t.Fatal("no refreshes fired despite tiny tREFI")
	}
	if cas := checkProtocol(t, p, trace); cas != 800 {
		t.Fatalf("%d column commands for 800 requests", cas)
	}
}

func TestProtocolInvariantsSingleBankHammer(t *testing.T) {
	// Confine all traffic to one channel so the four-activate window
	// and the per-bank PRE/ACT cycle are stressed as hard as possible:
	// every request misses its row, forcing a PRE+ACT per access.
	p := DDR4_3200()
	p.Channels = 1
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	sys := NewSystem(eng, p, sim.NewStats(), "dram.")
	sink := newDRAMSink()
	sys.AttachTrace(sink)
	rng := rand.New(rand.NewSource(9))
	m := sys.Mapper()
	remaining, inflight := 600, 0
	row := 0
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for remaining > 0 {
			// A fresh row on a random bank every request: all conflicts.
			row++
			c := Coord{
				Channel:   0,
				BankGroup: rng.Intn(p.BankGroups),
				Bank:      rng.Intn(p.Banks),
				Row:       row % 256,
			}
			r := &Request{Addr: m.Unmap(c), Kind: Read, OnDone: func(sim.Cycle) { inflight-- }}
			if !sys.Submit(r) {
				break
			}
			inflight++
			remaining--
		}
		return remaining > 0 || inflight > 0
	}))
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	acts := 0
	for _, e := range sink.Events() {
		if e.Kind == obs.EvDRAMAct {
			acts++
		}
	}
	if acts < 500 {
		t.Fatalf("hammer produced only %d ACTs; rows should conflict", acts)
	}
	checkProtocol(t, p, sink.Events())
}

func TestProtocolInvariantsWriteHeavy(t *testing.T) {
	// A write-dominated stream on one channel keeps banks in the
	// write-recovery window, so the tWR check actually bites.
	p := DDR4_3200()
	p.Channels = 1
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	sys := NewSystem(eng, p, sim.NewStats(), "dram.")
	sink := newDRAMSink()
	sys.AttachTrace(sink)
	rng := rand.New(rand.NewSource(7))
	m := sys.Mapper()
	remaining, inflight := 600, 0
	row := 0
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for remaining > 0 {
			row++
			c := Coord{
				Channel:   0,
				BankGroup: rng.Intn(p.BankGroups),
				Bank:      rng.Intn(p.Banks),
				Row:       row % 64,
			}
			kind := Write
			if rng.Intn(4) == 0 {
				kind = Read
			}
			r := &Request{Addr: m.Unmap(c), Kind: kind, OnDone: func(sim.Cycle) { inflight-- }}
			if !sys.Submit(r) {
				break
			}
			inflight++
			remaining--
		}
		return remaining > 0 || inflight > 0
	}))
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	trace := sink.Events()
	writes, pres := 0, 0
	for _, e := range trace {
		switch e.Kind {
		case obs.EvDRAMWrite:
			writes++
		case obs.EvDRAMPre:
			pres++
		}
	}
	if writes < 300 || pres < 100 {
		t.Fatalf("stream too tame to exercise tWR: %d writes, %d PREs", writes, pres)
	}
	checkProtocol(t, p, trace)
}

func TestRequestBufferNeverExceedsCapacity(t *testing.T) {
	p := DDR4_3200()
	p.Channels = 1
	eng := sim.NewEngine()
	sys := NewSystem(eng, p, sim.NewStats(), "dram.")
	m := sys.Mapper()
	addr := func(row int) memspace.PAddr {
		return m.Unmap(Coord{Row: row})
	}
	for i := 0; i < p.RequestBuffer; i++ {
		if !sys.Submit(&Request{Addr: addr(i), Kind: Read}) {
			t.Fatalf("submit %d rejected below capacity %d", i, p.RequestBuffer)
		}
	}
	if sys.QueueLen(addr(0)) != p.RequestBuffer {
		t.Fatalf("queue length %d, want %d", sys.QueueLen(addr(0)), p.RequestBuffer)
	}
	if sys.CanAccept(addr(0)) {
		t.Fatal("CanAccept true on a full buffer")
	}
	for i := 0; i < 8; i++ {
		if sys.Submit(&Request{Addr: addr(100 + i), Kind: Read}) {
			t.Fatal("submit accepted beyond the request buffer capacity")
		}
	}
	// Draining must reopen the buffer.
	done := 0
	for sys.QueueLen(addr(0)) == p.RequestBuffer {
		eng.Step()
		done++
		if done > 100_000 {
			t.Fatal("buffer never drained")
		}
	}
	if !sys.CanAccept(addr(0)) {
		t.Fatal("CanAccept false after drain")
	}
	if !sys.Submit(&Request{Addr: addr(200), Kind: Read}) {
		t.Fatal("submit rejected after drain")
	}
}

// hitStream drives a randomized mix of reads and writes whose
// addresses cluster on a few rows of every bank, so pending row hits,
// row conflicts and held-back precharges are all common. It registers
// one ticker after the memory system, so on every DRAM edge it first
// checks each bank's pending-hit count against a brute-force scan of
// the queue, then submits the next burst.
type hitStream struct {
	t    *testing.T
	sys  *System
	sink *obs.Sink
	rng  *rand.Rand

	remaining, inflight int
	// subs records, per accepted request, how many trace events had
	// been emitted when it entered the queue, so the trace can be
	// replayed against the queue it was scheduled from.
	subs []submission
	// held counts the (edge, bank) pairs at which a pending hit kept a
	// queued request for another row of the bank from precharging.
	held int
}

type submission struct {
	at uint64 // trace length at submission
	c  Coord
}

func newHitStream(t *testing.T, p Params) (*sim.Engine, *hitStream) {
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	s := &hitStream{t: t, sys: NewSystem(eng, p, sim.NewStats(), "dram."), sink: newDRAMSink()}
	s.sys.AttachTrace(s.sink)
	eng.Register(sim.TickerFunc(s.tick))
	return eng, s
}

// run submits n requests drawn from seed and runs the engine until
// they have all completed.
func (s *hitStream) run(eng *sim.Engine, seed int64, n int) {
	s.t.Helper()
	s.rng = rand.New(rand.NewSource(seed))
	s.remaining = n
	if _, err := eng.Run(nil); err != nil {
		s.t.Fatal(err)
	}
	if s.remaining != 0 || s.inflight != 0 {
		s.t.Fatalf("stream not drained: %d unsubmitted, %d in flight", s.remaining, s.inflight)
	}
	if s.sink.Dropped() != 0 {
		s.t.Fatalf("trace ring overwrote %d events; grow newDRAMSink", s.sink.Dropped())
	}
}

func (s *hitStream) tick(now sim.Cycle) bool {
	p := &s.sys.p
	if uint64(now)%uint64(p.ClkDiv) == 0 {
		s.held += checkHitCounts(s.t, s.sys)
	}
	for burst := s.rng.Intn(4); burst > 0 && s.remaining > 0; burst-- {
		c := Coord{
			Channel:   s.rng.Intn(p.Channels),
			Rank:      s.rng.Intn(p.Ranks),
			BankGroup: s.rng.Intn(p.BankGroups),
			Bank:      s.rng.Intn(p.Banks),
			Row:       s.rng.Intn(3),
			Column:    s.rng.Intn(p.LinesPerRow()),
		}
		kind := Read
		if s.rng.Intn(3) == 0 {
			kind = Write
		}
		r := &Request{Addr: s.sys.Mapper().Unmap(c), Kind: kind, OnDone: func(sim.Cycle) { s.inflight-- }}
		if !s.sys.Submit(r) {
			break
		}
		s.subs = append(s.subs, submission{at: s.sink.Total(), c: c})
		s.inflight++
		s.remaining--
	}
	return s.remaining > 0 || s.inflight > 0
}

// checkHitCounts compares every bank's pending-hit count, and every
// queued request's resolved bank, with a brute-force recomputation
// from the queue. It returns how many banks are holding a conflicting
// request back behind pending hits.
func checkHitCounts(t *testing.T, sys *System) (held int) {
	t.Helper()
	p := &sys.p
	for ci, ch := range sys.chans {
		for _, q := range ch.queue {
			if int(q.slice) != q.coord.Slice(p) || int(q.bg) != q.coord.Rank*p.BankGroups+q.coord.BankGroup {
				t.Fatalf("ch%d: request %+v resolved to slice %d, bank group %d", ci, q.coord, q.slice, q.bg)
			}
		}
		for bi := range ch.banks {
			b := &ch.banks[bi]
			want, conflict := 0, false
			for _, q := range ch.queue {
				if q.coord.Slice(p) != bi {
					continue
				}
				if q.coord.Row == b.openRow {
					want++
				} else {
					conflict = true
				}
			}
			if b.hits != want {
				t.Fatalf("ch%d slice%d (open row %d): hits=%d, queue holds %d requests to the open row",
					ci, bi, b.openRow, b.hits, want)
			}
			if want > 0 && conflict {
				held++
			}
		}
	}
	return held
}

// checkNoPrematurePre replays a command trace against the queue it was
// scheduled from, rebuilt from the submission log: it reports every
// PRE that closed a row some queued request still targeted. It returns
// the number of PREs replayed.
func checkNoPrematurePre(t *testing.T, p Params, trace []obs.Event, subs []submission) (pres int) {
	t.Helper()
	type bankKey struct{ ch, slice int }
	type rowKey struct {
		bankKey
		row int
	}
	queued := map[rowKey]int{}
	open := map[bankKey]int{}
	next := 0
	for i, e := range trace {
		for ; next < len(subs) && subs[next].at <= uint64(i); next++ {
			c := subs[next].c
			queued[rowKey{bankKey{c.Channel, c.Slice(&p)}, c.Row}]++
		}
		c := coordOf(e)
		bk := bankKey{c.Channel, c.Slice(&p)}
		switch e.Kind {
		case obs.EvDRAMAct:
			open[bk] = c.Row
		case obs.EvDRAMPre:
			pres++
			if row, ok := open[bk]; ok && queued[rowKey{bk, row}] > 0 {
				t.Errorf("cmd %d: PRE ch%d slice%d closed row %d with %d queued requests to it",
					i, bk.ch, bk.slice, row, queued[rowKey{bk, row}])
			}
			delete(open, bk)
		case obs.EvDRAMRead, obs.EvDRAMWrite:
			rk := rowKey{bk, c.Row}
			if queued[rk] == 0 {
				t.Fatalf("cmd %d: CAS ch%d slice%d row %d with no such request queued", i, bk.ch, bk.slice, c.Row)
			}
			queued[rk]--
		case obs.EvDRAMRefresh:
			for k := range open {
				if int64(k.ch) == e.Args[0] {
					delete(open, k)
				}
			}
		}
	}
	return pres
}

func TestPendingHitCountsMatchOracle(t *testing.T) {
	// Two ranks and a short refresh interval: refreshes close rows that
	// still have pending hits, mid-stream.
	p := DDR4_3200()
	p.Ranks = 2
	p.TREFI = 600
	p.TRFC = 100
	for seed := int64(1); seed <= 4; seed++ {
		const n = 1500
		eng, s := newHitStream(t, p)
		s.run(eng, seed, n)
		trace := s.sink.Events()
		refreshes := 0
		for _, e := range trace {
			if e.Kind == obs.EvDRAMRefresh {
				refreshes++
			}
		}
		pres := checkNoPrematurePre(t, p, trace, s.subs)
		if cas := checkProtocol(t, p, trace); cas != n {
			t.Fatalf("seed %d: %d column commands for %d requests", seed, cas, n)
		}
		// The stream must exercise what it checks: hits holding back a
		// precharge, precharges themselves, and refreshes.
		if s.held < 1000 || pres < 300 || refreshes < 10 {
			t.Fatalf("seed %d: stream too tame: %d held banks, %d PREs, %d refreshes", seed, s.held, pres, refreshes)
		}
	}
}
