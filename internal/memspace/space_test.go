package memspace

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	sp := New()
	a := sp.Alloc("a", 100)
	b := sp.Alloc("b", HugePageSize+1)
	c := sp.Alloc("c", 64)
	for _, r := range []Region{a, b, c} {
		if uint64(r.Base)%HugePageSize != 0 {
			t.Fatalf("region %s base %#x not huge-page aligned", r.Name, uint64(r.Base))
		}
	}
	if a.End() > b.Base || b.End() > c.Base {
		t.Fatal("regions overlap")
	}
	if b.Base != a.Base+HugePageSize {
		t.Fatalf("b.Base = %#x, want %#x", uint64(b.Base), uint64(a.Base+HugePageSize))
	}
	// b spans two huge pages, so c starts two pages after b.
	if c.Base != b.Base+2*HugePageSize {
		t.Fatalf("c.Base = %#x, want %#x", uint64(c.Base), uint64(b.Base+2*HugePageSize))
	}
}

func TestTranslateConsistency(t *testing.T) {
	sp := New()
	r := sp.Alloc("x", 3*HugePageSize)
	// Offsets within a page are preserved.
	for _, off := range []uint64{0, 1, 63, HugePageSize - 1, HugePageSize, 2*HugePageSize + 12345} {
		pa := sp.Translate(r.Base + VAddr(off))
		if uint64(pa)%HugePageSize != off%HugePageSize {
			t.Fatalf("offset not preserved: off=%d pa=%#x", off, uint64(pa))
		}
	}
	// Distinct pages map to distinct frames.
	p0 := sp.Translate(r.Base) >> HugePageBits
	p1 := sp.Translate(r.Base+HugePageSize) >> HugePageBits
	if p0 == p1 {
		t.Fatal("two virtual pages share a frame")
	}
}

func TestTranslateUnmappedPanics(t *testing.T) {
	sp := New()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unmapped translate")
		}
	}()
	sp.Translate(0xdeadbeef000)
}

func TestReadWriteWord(t *testing.T) {
	sp := New()
	r := sp.Alloc("w", 64)
	sp.WriteWord(r.Base, 8, 0x1122334455667788)
	if got := sp.ReadWord(r.Base, 8); got != 0x1122334455667788 {
		t.Fatalf("ReadWord8 = %#x", got)
	}
	// Little-endian: low 4 bytes first.
	if got := sp.ReadWord(r.Base, 4); got != 0x55667788 {
		t.Fatalf("ReadWord4 = %#x", got)
	}
	sp.WriteWord(r.Base+4, 4, 0xCAFEBABE)
	if got := sp.ReadWord(r.Base, 8); got != 0xCAFEBABE55667788 {
		t.Fatalf("mixed = %#x", got)
	}
}

func TestRegionOf(t *testing.T) {
	sp := New()
	a := sp.Alloc("a", 128)
	b := sp.Alloc("b", 128)
	if got := sp.RegionOf(a.Base + 5); got.Name != "a" {
		t.Fatalf("RegionOf(a+5) = %q", got.Name)
	}
	if got := sp.RegionOf(b.Base); got.Name != "b" {
		t.Fatalf("RegionOf(b) = %q", got.Name)
	}
	if n := len(sp.Regions()); n != 2 {
		t.Fatalf("Regions len = %d", n)
	}
}

func TestArrayRoundTripTypes(t *testing.T) {
	sp := New()
	au32 := NewArray[uint32](sp, "u32", 10)
	au32.Set(3, 0xFFFF0001)
	if got := au32.Get(3); got != 0xFFFF0001 {
		t.Fatalf("u32 = %#x", got)
	}
	ai32 := NewArray[int32](sp, "i32", 10)
	ai32.Set(0, -42)
	if got := ai32.Get(0); got != -42 {
		t.Fatalf("i32 = %d", got)
	}
	af32 := NewArray[float32](sp, "f32", 10)
	af32.Set(9, 3.5)
	if got := af32.Get(9); got != 3.5 {
		t.Fatalf("f32 = %v", got)
	}
	af64 := NewArray[float64](sp, "f64", 10)
	af64.Set(1, -2.25)
	if got := af64.Get(1); got != -2.25 {
		t.Fatalf("f64 = %v", got)
	}
	ai64 := NewArray[int64](sp, "i64", 10)
	ai64.Set(2, -1<<40)
	if got := ai64.Get(2); got != -1<<40 {
		t.Fatalf("i64 = %d", got)
	}
	au64 := NewArray[uint64](sp, "u64", 10)
	au64.Set(5, 1<<63)
	if got := au64.Get(5); got != 1<<63 {
		t.Fatalf("u64 = %#x", got)
	}
}

func TestArrayAddrStride(t *testing.T) {
	sp := New()
	a := NewArray[uint32](sp, "a", 100)
	if a.Addr(1)-a.Addr(0) != 4 {
		t.Fatal("u32 stride != 4")
	}
	b := NewArray[float64](sp, "b", 100)
	if b.Addr(1)-b.Addr(0) != 8 {
		t.Fatal("f64 stride != 8")
	}
	if a.ElemSize() != 4 || b.ElemSize() != 8 {
		t.Fatal("ElemSize wrong")
	}
}

func TestArrayOutOfRangePanics(t *testing.T) {
	sp := New()
	a := NewArray[uint32](sp, "a", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	a.Get(4)
}

func TestArrayCopySnapshot(t *testing.T) {
	sp := New()
	a := NewArray[int64](sp, "a", 5)
	src := []int64{1, -2, 3, -4, 5}
	a.CopyFrom(src)
	got := a.Snapshot()
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("snapshot[%d] = %d, want %d", i, got[i], src[i])
		}
	}
	a.Fill(9)
	if a.Get(4) != 9 {
		t.Fatal("Fill failed")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(uint64(0x1007F)) != 0x10040 {
		t.Fatalf("LineAddr = %#x", LineAddr(uint64(0x1007F)))
	}
}

// Property: writing arbitrary u64 values at arbitrary indices and
// reading them back is the identity, and neighbours are unaffected.
func TestArrayWriteReadProperty(t *testing.T) {
	sp := New()
	a := NewArray[uint64](sp, "p", 64)
	f := func(idx uint8, v uint64) bool {
		i := int(idx) % 62
		left, right := a.Get(i), a.Get(i+2)
		a.Set(i+1, v)
		return a.Get(i+1) == v && a.Get(i) == left && a.Get(i+2) == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: translation preserves the in-page offset and is injective
// across pages of one allocation.
func TestTranslateProperty(t *testing.T) {
	sp := New()
	r := sp.Alloc("p", 8*HugePageSize)
	f := func(off uint32) bool {
		o := uint64(off) % (8 * HugePageSize)
		pa := sp.Translate(r.Base + VAddr(o))
		return uint64(pa)&(HugePageSize-1) == o&(HugePageSize-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReserveBacksOnFirstWrite pins lazy backing: a reserved region
// holds no bytes until its first write, reads as zeros before it, and
// keeps the bounds check of an allocated one. Alloc backs eagerly.
func TestReserveBacksOnFirstWrite(t *testing.T) {
	sp := New()
	r := sp.Reserve("spd", 4<<20)
	if v := sp.ReadWord(r.Base+64, 8); v != 0 {
		t.Fatalf("unwritten word = %d, want 0", v)
	}
	if sp.allocs[0].data != nil {
		t.Fatal("a read allocated the backing bytes")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("8-byte read straddling the region end did not panic")
			}
		}()
		sp.ReadWord(r.End()-4, 8)
	}()
	sp.WriteWord(r.Base+8, 4, 0xdeadbeef)
	if got := sp.ReadWord(r.Base+8, 4); got != 0xdeadbeef {
		t.Fatalf("after write: %#x", got)
	}
	if len(sp.allocs[0].data) != 4<<20 {
		t.Fatalf("backing is %d bytes, want the region size", len(sp.allocs[0].data))
	}
	sp.Alloc("a", 64)
	if len(sp.allocs[1].data) != 64 {
		t.Fatal("Alloc did not back its region")
	}
	if sp.Translate(r.Base) == sp.Translate(sp.Regions()[1].Base) {
		t.Fatal("reserved and allocated regions share a frame")
	}
}

// TestWriteWordsMatchesWriteWord: a bulk fill writes the same bytes as
// word-by-word writes, and refuses a run past its allocation.
func TestWriteWordsMatchesWriteWord(t *testing.T) {
	vals := []uint64{1, 1 << 40, 0xffffffff, 7, 1<<63 | 5}
	for _, size := range []int{4, 8} {
		bulk, single := New(), New()
		rb := bulk.Alloc("a", uint64(len(vals)*size))
		rs := single.Alloc("a", uint64(len(vals)*size))
		bulk.WriteWords(rb.Base, size, vals)
		for i, v := range vals {
			single.WriteWord(rs.Base+VAddr(i*size), size, v)
		}
		for i := range vals {
			if a, b := bulk.ReadWord(rb.Base+VAddr(i*size), size), single.ReadWord(rs.Base+VAddr(i*size), size); a != b {
				t.Fatalf("size %d word %d: bulk %#x, single %#x", size, i, a, b)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("size %d: WriteWords past the region end did not panic", size)
				}
			}()
			bulk.WriteWords(rb.Base+VAddr(size), size, vals)
		}()
	}
}
