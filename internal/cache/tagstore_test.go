package cache

import (
	"bytes"
	"testing"
	"unsafe"

	"dx100/internal/memspace"
	"dx100/internal/sample/ckpt"
)

// TestTagStoreFlatAndPacked pins the tag store's footprint: one
// set-major array of 16-byte lines, Sets*Ways long.
func TestTagStoreFlatAndPacked(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Fatalf("line is %d bytes, want 16", n)
	}
	_, c, _, _ := newTestCache(smallCfg())
	if len(c.lines) != 4*2 {
		t.Fatalf("tag store holds %d lines, want Sets*Ways = 8", len(c.lines))
	}
	if &c.set(1)[0] != &c.lines[2] || len(c.set(3)) != 2 {
		t.Fatal("set s must own lines[s*Ways:(s+1)*Ways]")
	}
}

// TestLineFlags drives the packed valid/dirty flags through fill, store
// hit, invalidation and a checkpoint round trip: an invalidated line
// keeps its tag (the checkpoint records it), and the image is the same
// flag-by-flag layout as before packing.
func TestLineFlags(t *testing.T) {
	eng, c, _, _ := newTestCache(smallCfg())
	const a, b = memspace.PAddr(0x1000), memspace.PAddr(0x2040)
	access(t, eng, c, a, Load)
	access(t, eng, c, b, Load)
	access(t, eng, c, b, Store)
	la, lb := c.lookup(a), c.lookup(b)
	if la == nil || lb == nil {
		t.Fatal("filled lines not resident")
	}
	if la.dirty() || !lb.dirty() || !la.valid() {
		t.Fatalf("flags: a valid %v dirty %v, b dirty %v", la.valid(), la.dirty(), lb.dirty())
	}
	_, tagB := c.indexTag(b)
	if lb.tag() != tagB {
		t.Fatalf("tag %#x, want %#x", lb.tag(), tagB)
	}
	c.Invalidate(b)
	if c.PresentHere(b) || lb.valid() || lb.dirty() || lb.tag() != tagB {
		t.Fatalf("invalidated line: valid %v dirty %v tag %#x (want false, false, %#x)", lb.valid(), lb.dirty(), lb.tag(), tagB)
	}

	var w ckpt.Writer
	if err := c.CheckpointSave(&w); err != nil {
		t.Fatal(err)
	}
	img := w.Bytes()
	if want := 4 + 4 + len(c.lines)*(1+1+8+8) + 8 + 8 + 8; len(img) != want {
		t.Fatalf("image is %d bytes, want %d", len(img), want)
	}
	_, fresh, _, _ := newTestCache(smallCfg())
	if err := fresh.CheckpointLoad(ckpt.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	var w2 ckpt.Writer
	if err := fresh.CheckpointSave(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, w2.Bytes()) {
		t.Fatal("restored cache re-saves a different image")
	}
	if !fresh.PresentHere(a) || fresh.PresentHere(b) {
		t.Fatal("restored residency differs")
	}

	// A tag reaching the flag bits cannot come from a real address; the
	// loader refuses it rather than aliasing it onto the flags.
	bad := bytes.Clone(img)
	bad[4+4+1+1+7] = 0x40 // top byte of the first line's tag
	if err := fresh.CheckpointLoad(ckpt.NewReader(bad)); err == nil {
		t.Fatal("tag with flag bits set loaded without error")
	}
}
