package dram

import (
	"bytes"
	"testing"

	"dx100/internal/sample/ckpt"
	"dx100/internal/sim"
)

// ckptParts enumerates what a memory-system checkpoint needs beside the
// DRAM state: the clock its timing trackers are relative to, and the
// counters a continued run keeps adding to.
func ckptParts(eng *sim.Engine, s *hitStream) []ckpt.Part {
	return []ckpt.Part{
		{Name: "engine", C: eng},
		{Name: "stats", C: s.sys.stats.Checkpoint()},
		{Name: "dram", C: s.sys},
	}
}

// TestCheckpointRoundTripPendingHits saves a memory system with open
// rows, restores it into a fresh system whose pending-hit counts are
// stale, and checks that the counts restore to zero and that a second
// stream then runs command for command as it does without the
// checkpoint.
func TestCheckpointRoundTripPendingHits(t *testing.T) {
	p := DDR4_3200()
	p.Ranks = 2
	p.TREFI = 600
	p.TRFC = 100

	engA, a := newHitStream(t, p)
	a.run(engA, 1, 800)
	img, err := ckpt.Marshal(ckptParts(engA, a))
	if err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, ch := range a.sys.chans {
		for i := range ch.banks {
			if ch.banks[i].openRow != -1 {
				open++
			}
			// hits is derived state: the image must not depend on it.
			ch.banks[i].hits = 5
		}
	}
	if open == 0 {
		t.Fatal("no open rows at the checkpoint; the round trip checks nothing")
	}
	again, err := ckpt.Marshal(ckptParts(engA, a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, again) {
		t.Fatal("checkpoint image depends on the pending-hit counts")
	}
	for _, ch := range a.sys.chans {
		for i := range ch.banks {
			ch.banks[i].hits = 0
		}
	}

	engB, b := newHitStream(t, p)
	for _, ch := range b.sys.chans {
		for i := range ch.banks {
			ch.banks[i].hits = 5 // stale state a restore must not keep
		}
	}
	if err := ckpt.Unmarshal(img, ckptParts(engB, b)); err != nil {
		t.Fatal(err)
	}
	for ci, ch := range b.sys.chans {
		for i := range ch.banks {
			if want := a.sys.chans[ci].banks[i]; ch.banks[i] != want {
				t.Fatalf("ch%d slice%d restored as %+v, saved %+v", ci, i, ch.banks[i], want)
			}
		}
	}

	mark := a.sink.Total()
	a.run(engA, 2, 800)
	b.run(engB, 2, 800)
	want, got := a.sink.Events()[mark:], b.sink.Events()
	if len(got) != len(want) {
		t.Fatalf("restored run issued %d commands, uncheckpointed run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("command %d: restored run %+v, uncheckpointed run %+v", i, got[i], want[i])
		}
	}
	for _, name := range a.sys.stats.Names() {
		if g, w := b.sys.stats.Get(name), a.sys.stats.Get(name); g != w {
			t.Errorf("%s: restored run %v, uncheckpointed run %v", name, g, w)
		}
	}
}

func TestCheckpointLoadRefusesQueuedRequests(t *testing.T) {
	p := DDR4_3200()
	eng, s := newHitStream(t, p)
	s.run(eng, 1, 50)
	var w ckpt.Writer
	if err := s.sys.CheckpointSave(&w); err != nil {
		t.Fatal(err)
	}
	if !s.sys.Submit(&Request{Addr: 0, Kind: Read}) {
		t.Fatal("submit rejected on an empty buffer")
	}
	if err := s.sys.CheckpointLoad(ckpt.NewReader(w.Bytes())); err == nil {
		t.Fatal("restore into a memory system with a queued request succeeded")
	}
}
