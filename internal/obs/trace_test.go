package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func ev(kind Kind, cycle uint64, args ...int64) Event {
	e := Event{Cycle: cycle, Kind: kind, Src: "t."}
	copy(e.Args[:], args)
	return e
}

func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	s.Emit(ev(EvDRAMAct, 1))
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	if s.Total() != 0 || s.Dropped() != 0 || s.Events() != nil {
		t.Fatal("nil sink accumulated state")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRingKeepsMostRecentAndCountsDrops(t *testing.T) {
	s := NewSink(4)
	for i := uint64(1); i <= 10; i++ {
		s.Emit(ev(EvCacheFill, i, int64(i)))
	}
	if s.Total() != 10 {
		t.Fatalf("total = %d, want 10", s.Total())
	}
	if s.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", s.Dropped())
	}
	got := s.Events()
	if len(got) != 4 {
		t.Fatalf("kept %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d (chronological order lost)", i, e.Cycle, want)
		}
	}
}

func TestMaskFilters(t *testing.T) {
	s := NewSink(16)
	s.SetMask(MaskDRAM)
	s.Emit(ev(EvDRAMAct, 1))
	s.Emit(ev(EvCacheFill, 2))
	s.Emit(ev(EvFastForward, 3))
	s.Emit(ev(EvDRAMRead, 4))
	if s.Total() != 2 {
		t.Fatalf("mask let %d events through, want 2", s.Total())
	}
	for _, e := range s.Events() {
		if e.Kind.Category() != "dram" {
			t.Fatalf("non-dram event %v passed MaskDRAM", e.Kind)
		}
	}
}

func TestJSONLStableBytesAndValidJSON(t *testing.T) {
	s := NewSink(8)
	s.Emit(ev(EvDRAMAct, 12, 0, 0, 1, 2, 17, 6))
	s.Emit(ev(EvDRAMRefresh, 20, 3, 10))
	s.Emit(ev(EvFastForward, 30, 90, 59))
	var a, b bytes.Buffer
	if err := s.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings differ")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	var first struct {
		Cycle uint64           `json:"cycle"`
		Cat   string           `json:"cat"`
		Name  string           `json:"name"`
		Src   string           `json:"src"`
		Args  map[string]int64 `json:"args"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line not valid JSON: %v\n%s", err, lines[0])
	}
	if first.Cat != "dram" || first.Name != "ACT" || first.Cycle != 12 {
		t.Fatalf("decoded %+v", first)
	}
	if first.Args["row"] != 17 || first.Args["dram_cycle"] != 6 || first.Args["bank_group"] != 1 {
		t.Fatalf("args decoded wrong: %v", first.Args)
	}
	if !strings.Contains(lines[1], `"name":"REF"`) || !strings.Contains(lines[2], `"name":"fast_forward"`) {
		t.Fatalf("unexpected lines:\n%s", a.String())
	}
}

func TestSpillJSONLLosesNothing(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(4) // tiny ring: forces many flushes
	s.SpillJSONL(&buf)
	const n = 57
	for i := uint64(0); i < n; i++ {
		s.Emit(ev(EvCacheEvict, i, int64(i), 1, 0))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("spilled %d lines, want %d", len(lines), n)
	}
	// Chronological and complete.
	for i, ln := range lines {
		var e struct {
			Cycle uint64 `json:"cycle"`
		}
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.Cycle != uint64(i) {
			t.Fatalf("line %d has cycle %d", i, e.Cycle)
		}
	}
	if s.Dropped() != 0 {
		t.Fatalf("spill mode dropped %d events", s.Dropped())
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	s := NewSink(8)
	s.Emit(ev(EvDRAMAct, 5, 1, 0, 2, 3, 9, 2))
	s.Emit(ev(EvFastForward, 10, 100, 89))
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int64          `json:"tid"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	act, ff := doc.TraceEvents[0], doc.TraceEvents[1]
	if act.Ph != "i" || act.Tid != 1 {
		t.Fatalf("ACT encoded %+v", act)
	}
	if ff.Ph != "X" || ff.Dur == nil || *ff.Dur != 89 {
		t.Fatalf("fast-forward encoded %+v", ff)
	}

	// Spilled chrome output must decode identically.
	var spilled bytes.Buffer
	s2 := NewSink(1)
	s2.SpillChrome(&spilled)
	s2.Emit(ev(EvDRAMAct, 5, 1, 0, 2, 3, 9, 2))
	s2.Emit(ev(EvFastForward, 10, 100, 89))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spilled.Bytes(), &doc); err != nil {
		t.Fatalf("spilled chrome trace not valid JSON: %v\n%s", err, spilled.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("spilled %d events, want 2", len(doc.TraceEvents))
	}
}

func TestEmitZeroAllocs(t *testing.T) {
	// Ring-mode Emit in steady state must not allocate: the engine's
	// hot loop emits fast-forward events through this path.
	s := NewSink(128)
	for i := 0; i < 256; i++ {
		s.Emit(ev(EvFastForward, uint64(i), 1, 1)) // fill + wrap to steady state
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Emit(Event{Cycle: 1, Kind: EvFastForward, Src: "engine", Args: [6]int64{2, 1}})
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v per op in steady state", allocs)
	}
}

// TestRingGrowsUpToCeiling pins the ring's allocation: the backing
// array starts small, never exceeds the ceiling, and once full the
// ring keeps the newest ceiling-many events in order.
func TestRingGrowsUpToCeiling(t *testing.T) {
	if s := NewSink(0); s.limit != DefaultSinkCap || cap(s.ring) != 0 {
		t.Fatalf("NewSink(0): ceiling %d, backing %d; want %d, 0", s.limit, cap(s.ring), DefaultSinkCap)
	}
	const ceiling = 100 // not a power of two: growth must clamp
	s := NewSink(ceiling)
	for i := uint64(1); i <= 1000; i++ {
		s.Emit(ev(EvCacheFill, i))
		if c := cap(s.ring); c > ceiling {
			t.Fatalf("after %d events the backing array holds %d slots, ceiling %d", i, c, ceiling)
		}
		if i == 3 && cap(s.ring) > minSinkAlloc {
			t.Fatalf("3 events grew the backing array to %d slots", cap(s.ring))
		}
	}
	if cap(s.ring) != ceiling {
		t.Fatalf("full ring holds %d slots, want %d", cap(s.ring), ceiling)
	}
	if s.Dropped() != 900 || s.Total() != 1000 {
		t.Fatalf("dropped %d of %d, want 900 of 1000", s.Dropped(), s.Total())
	}
	got := s.Events()
	if len(got) != ceiling {
		t.Fatalf("kept %d events, want %d", len(got), ceiling)
	}
	for i, e := range got {
		if want := uint64(901 + i); e.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d", i, e.Cycle, want)
		}
	}
}

// TestSpillFlushesAtCeiling pins spill mode's flush points: a batch is
// written exactly when the ring holds ceiling-many events and another
// arrives, never earlier (the growing backing array must not trigger a
// flush) and never past the ceiling.
func TestSpillFlushesAtCeiling(t *testing.T) {
	const ceiling = 5
	var buf bytes.Buffer
	s := NewSink(ceiling)
	s.SpillJSONL(&buf)
	for k := 1; k <= 23; k++ {
		s.Emit(ev(EvCacheFill, uint64(k)))
		spilled := strings.Count(buf.String(), "\n")
		if want := (k - 1) / ceiling * ceiling; spilled != want {
			t.Fatalf("after %d events %d were spilled, want %d", k, spilled, want)
		}
		if cap(s.ring) > ceiling {
			t.Fatalf("spill buffer grew to %d slots, ceiling %d", cap(s.ring), ceiling)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 23 || s.Dropped() != 0 {
		t.Fatalf("spilled %d lines, dropped %d; want 23, 0", n, s.Dropped())
	}
}
