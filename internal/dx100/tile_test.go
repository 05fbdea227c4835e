package dx100

import (
	"bytes"
	"testing"

	"dx100/internal/memspace"
	"dx100/internal/sample/ckpt"
)

// TestUnwrittenTileReadsZero pins the lazily allocated scratchpad: a
// tile no instruction has written holds no storage, reads as zeros at
// its configured capacity, and still bounds-checks its index.
func TestUnwrittenTileReadsZero(t *testing.T) {
	_, m := newTestMachine(64)
	tl := m.Tile(3)
	if tl.Cap() != 64 || tl.Size() != 0 {
		t.Fatalf("fresh tile cap %d size %d, want 64 and 0", tl.Cap(), tl.Size())
	}
	for _, i := range []int{0, 17, 63} {
		if v := tl.Raw(i); v != 0 {
			t.Fatalf("unwritten tile element %d = %d, want 0", i, v)
		}
	}
	for i := range m.tiles {
		if m.tiles[i].bits != nil {
			t.Fatalf("tile %d allocated before any write", i)
		}
	}
	for _, i := range []int{-1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Raw(%d) on a 64-element tile did not panic", i)
				}
			}()
			tl.Raw(i)
		}()
	}
	tl.SetRaw(5, 7)
	if tl.Raw(5) != 7 || tl.Raw(4) != 0 || tl.Cap() != 64 {
		t.Fatalf("after SetRaw: [5]=%d [4]=%d cap %d", tl.Raw(5), tl.Raw(4), tl.Cap())
	}
	if m.Tile(2).bits != nil {
		t.Fatal("writing tile 3 allocated tile 2")
	}
}

// TestUnwrittenConditionTileSkipsAll runs every conditional opcode
// against a condition tile that was never written: as with an eagerly
// zeroed scratchpad, every iteration is skipped, while destinations
// still take the instruction's size.
func TestUnwrittenConditionTileSkipsAll(t *testing.T) {
	sp, m := newTestMachine(16)
	a := memspace.NewArray[uint32](sp, "A", 16)
	for i := 0; i < 16; i++ {
		a.Set(i, uint32(100+i))
	}
	const cond = 7
	idx, val := m.Tile(0), m.Tile(1)
	for i := 0; i < 4; i++ {
		idx.SetRaw(i, uint64(i))
		val.SetRaw(i, 9)
	}
	idx.SetSize(4)
	val.SetSize(4)
	m.SetReg(0, 0)
	m.SetReg(1, 4)
	m.SetReg(2, 1)
	mustExec(t, m, Instr{Op: SLD, DType: U32, Base: a.Base(), TD: 2, RS1: 0, RS2: 1, RS3: 2, TC: cond})
	mustExec(t, m, Instr{Op: ILD, DType: U32, Base: a.Base(), TD: 3, TS1: 0, TC: cond})
	mustExec(t, m, Instr{Op: IST, DType: U32, Base: a.Base(), TS1: 0, TS2: 1, TC: cond})
	mustExec(t, m, Instr{Op: IRMW, DType: U32, ALU: OpAdd, Base: a.Base(), TS1: 0, TS2: 1, TC: cond})
	mustExec(t, m, Instr{Op: ALUV, DType: U32, ALU: OpAdd, TD: 4, TS1: 0, TS2: 1, TC: cond})
	for _, td := range []uint8{2, 3, 4} {
		tl := m.Tile(td)
		if tl.Size() != 4 {
			t.Fatalf("tile %d size %d, want 4", td, tl.Size())
		}
		for i := 0; i < 4; i++ {
			if tl.Raw(i) != 0 {
				t.Fatalf("tile %d element %d = %d, want 0 (condition never true)", td, i, tl.Raw(i))
			}
		}
	}
	for i := 0; i < 16; i++ {
		if got := a.Get(i); got != uint32(100+i) {
			t.Fatalf("A[%d] = %d, want %d untouched", i, got, 100+i)
		}
	}
	if m.Tile(cond).bits != nil {
		t.Fatal("reading the condition tile allocated it")
	}
}

// accelImage checkpoints a bare accelerator's architectural state.
func accelImage(t *testing.T, a *Accel) []byte {
	t.Helper()
	var w ckpt.Writer
	if err := a.CheckpointSave(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestFreshAccelCheckpointLayout pins the image of an accelerator that
// has run nothing: every tile is serialized at full capacity with zero
// contents, exactly as when the scratchpad was allocated up front, so
// the ckpt format does not depend on which tiles were ever written.
func TestFreshAccelCheckpointLayout(t *testing.T) {
	cfg := smallCfg()
	lazy := newRig(t, cfg).accel
	img := accelImage(t, lazy)

	mc := cfg.Machine
	want := 4 + 8*mc.Regs + // register count + registers
		4 + 4 + mc.Tiles*(8+8*mc.TileElems) + // geometry + per-tile size and slots
		8 + 8 + // Executed, retired
		4 + 8 + 8 // empty TLB, hits, misses
	if len(img) != want {
		t.Fatalf("fresh image is %d bytes, want %d", len(img), want)
	}

	// An accelerator whose every tile is materialized (written with a
	// zero) must produce the same bytes.
	eager := newRig(t, cfg).accel
	for i := range eager.m.tiles {
		eager.m.tiles[i].SetRaw(0, 0)
	}
	if !bytes.Equal(img, accelImage(t, eager)) {
		t.Fatal("lazily allocated scratchpad checkpoints differently from a materialized one")
	}
}

// TestTileCheckpointRoundTrip restores a scratchpad with written and
// unwritten tiles into a fresh accelerator: contents and sizes come
// back, the re-saved image is byte-identical, and tiles the image holds
// only zeros for stay unallocated.
func TestTileCheckpointRoundTrip(t *testing.T) {
	cfg := smallCfg()
	src := newRig(t, cfg).accel
	m := src.m
	for i := 0; i < 100; i++ {
		m.Tile(1).SetRaw(i, uint64(3*i+1))
	}
	m.Tile(1).SetSize(100)
	m.Tile(4).SetRaw(cfg.Machine.TileElems-1, 42)
	m.Tile(6).SetSize(8) // sized, contents all zero
	m.SetReg(3, 77)
	img := accelImage(t, src)

	dst := newRig(t, cfg).accel
	if err := dst.CheckpointLoad(ckpt.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, accelImage(t, dst)) {
		t.Fatal("restored accelerator re-saves a different image")
	}
	for i := 0; i < 100; i++ {
		if got := dst.m.Tile(1).Raw(i); got != uint64(3*i+1) {
			t.Fatalf("tile 1 element %d = %d after restore", i, got)
		}
	}
	if dst.m.Tile(1).Size() != 100 || dst.m.Tile(6).Size() != 8 {
		t.Fatalf("restored sizes %d, %d; want 100, 8", dst.m.Tile(1).Size(), dst.m.Tile(6).Size())
	}
	if got := dst.m.Tile(4).Raw(cfg.Machine.TileElems - 1); got != 42 {
		t.Fatalf("tile 4 last element = %d, want 42", got)
	}
	if dst.m.Reg(3) != 77 {
		t.Fatalf("register 3 = %d, want 77", dst.m.Reg(3))
	}
	for _, i := range []int{0, 2, 3, 5, 7} {
		if dst.m.tiles[i].bits != nil {
			t.Fatalf("all-zero unsized tile %d allocated by restore", i)
		}
	}
}
