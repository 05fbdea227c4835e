// Package memspace provides the simulated 64-bit virtual address space
// that all models in this repository operate on. Workloads allocate
// named arrays; the space hands out huge-page-aligned virtual
// addresses, maintains a huge-page table mapping them to physical
// frames, and stores the actual bytes, so both the functional DX100
// machine and the timing simulators see a single source of truth.
package memspace

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// VAddr is a simulated virtual address.
type VAddr uint64

// PAddr is a simulated physical address.
type PAddr uint64

const (
	// HugePageBits is log2 of the huge-page size (2 MiB), the mapping
	// granularity of the space (§3.6 of the paper: stream and indirect
	// regions are mapped through huge pages).
	HugePageBits = 21
	// HugePageSize is the huge-page size in bytes.
	HugePageSize = 1 << HugePageBits
	// LineBits is log2 of the cache-line size.
	LineBits = 6
	// LineSize is the cache-line size in bytes.
	LineSize = 1 << LineBits
)

// Region is an allocated range of virtual addresses.
type Region struct {
	Name string
	Base VAddr
	Size uint64
}

// Contains reports whether va falls inside the region.
func (r Region) Contains(va VAddr) bool {
	return va >= r.Base && uint64(va-r.Base) < r.Size
}

// End returns one past the last byte of the region.
func (r Region) End() VAddr { return r.Base + VAddr(r.Size) }

type alloc struct {
	region Region
	data   []byte // nil until the first write; unwritten bytes read as 0
}

// bytes returns the allocation's backing bytes for writing, allocating
// them on first use (see Reserve).
func (a *alloc) bytes() []byte {
	if a.data == nil {
		a.data = make([]byte, a.region.Size)
	}
	return a.data
}

// Space is a simulated address space. The zero value is not usable;
// call New.
type Space struct {
	allocs   []alloc // sorted by Base
	nextVA   VAddr
	nextPFN  uint64
	pageTab  map[uint64]uint64 // virtual page number -> physical frame number
	reversed map[uint64]uint64 // physical frame number -> virtual page number
}

// New returns an empty space. The first allocation starts at a non-zero
// base so that address 0 is never a valid pointer.
func New() *Space {
	return &Space{
		nextVA:   VAddr(HugePageSize),
		pageTab:  make(map[uint64]uint64),
		reversed: make(map[uint64]uint64),
	}
}

// Alloc reserves size bytes under the given name, mapping every huge
// page it spans to a fresh physical frame, and backs them with zeroed
// bytes. The returned region is huge-page aligned.
func (s *Space) Alloc(name string, size uint64) Region {
	r := s.Reserve(name, size)
	s.allocs[len(s.allocs)-1].bytes()
	return r
}

// Reserve maps address space like Alloc but defers the backing bytes
// to the region's first write; until then it reads as zeros with the
// same bounds check. It suits windows that are addressed but never
// written through the space, such as the DX100 scratchpad's
// memory-mapped region, which then cost no memory.
func (s *Space) Reserve(name string, size uint64) Region {
	if size == 0 {
		size = 1
	}
	base := s.nextVA
	pages := (size + HugePageSize - 1) / HugePageSize
	s.nextVA += VAddr(pages * HugePageSize)
	for p := uint64(0); p < pages; p++ {
		vpn := uint64(base)>>HugePageBits + p
		pfn := s.nextPFN
		s.nextPFN++
		s.pageTab[vpn] = pfn
		s.reversed[pfn] = vpn
	}
	r := Region{Name: name, Base: base, Size: size}
	s.allocs = append(s.allocs, alloc{region: r})
	return r
}

// Translate maps a virtual address to a physical address through the
// huge-page table. It panics on an unmapped address, which indicates a
// model bug (a wild access the real hardware would fault on).
func (s *Space) Translate(va VAddr) PAddr {
	vpn := uint64(va) >> HugePageBits
	pfn, ok := s.pageTab[vpn]
	if !ok {
		panic(fmt.Sprintf("memspace: translate of unmapped address %#x", uint64(va)))
	}
	return PAddr(pfn<<HugePageBits | uint64(va)&(HugePageSize-1))
}

// PTE returns the physical frame for a virtual page number, for the
// DX100 TLB model. ok is false for unmapped pages.
func (s *Space) PTE(vpn uint64) (pfn uint64, ok bool) {
	pfn, ok = s.pageTab[vpn]
	return pfn, ok
}

// findAlloc locates the allocation containing va.
func (s *Space) findAlloc(va VAddr) *alloc {
	i := sort.Search(len(s.allocs), func(i int) bool {
		return s.allocs[i].region.End() > va
	})
	if i < len(s.allocs) && s.allocs[i].region.Contains(va) {
		return &s.allocs[i]
	}
	panic(fmt.Sprintf("memspace: access to unallocated address %#x", uint64(va)))
}

// ReadWord reads a size-byte little-endian word (size 4 or 8) at va.
func (s *Space) ReadWord(va VAddr, size int) uint64 {
	a := s.findAlloc(va)
	off := uint64(va - a.region.Base)
	if a.data == nil && (size == 4 || size == 8) {
		if off+uint64(size) > a.region.Size {
			panic(fmt.Sprintf("memspace: %d-byte read at %#x runs past %s", size, uint64(va), a.region.Name))
		}
		return 0
	}
	switch size {
	case 4:
		return uint64(binary.LittleEndian.Uint32(a.data[off:]))
	case 8:
		return binary.LittleEndian.Uint64(a.data[off:])
	default:
		panic(fmt.Sprintf("memspace: unsupported word size %d", size))
	}
}

// WriteWord writes a size-byte little-endian word (size 4 or 8) at va.
func (s *Space) WriteWord(va VAddr, size int, v uint64) {
	a := s.findAlloc(va)
	off := uint64(va - a.region.Base)
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(a.bytes()[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(a.bytes()[off:], v)
	default:
		panic(fmt.Sprintf("memspace: unsupported word size %d", size))
	}
}

// WriteWords writes vals as consecutive size-byte little-endian words
// (size 4 or 8) starting at va. The allocation is resolved once, so
// filling an array costs one lookup rather than one per word; the whole
// run must lie inside one allocation.
func (s *Space) WriteWords(va VAddr, size int, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	a := s.findAlloc(va)
	off := uint64(va - a.region.Base)
	if end := off + uint64(len(vals))*uint64(size); end > a.region.Size {
		panic(fmt.Sprintf("memspace: %d-word write at %#x runs past %s", len(vals), uint64(va), a.region.Name))
	}
	data := a.bytes()[off:]
	switch size {
	case 4:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(data[4*i:], uint32(v))
		}
	case 8:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(data[8*i:], v)
		}
	default:
		panic(fmt.Sprintf("memspace: unsupported word size %d", size))
	}
}

// Regions returns all allocated regions in address order.
func (s *Space) Regions() []Region {
	rs := make([]Region, len(s.allocs))
	for i, a := range s.allocs {
		rs[i] = a.region
	}
	return rs
}

// RegionOf returns the region containing va.
func (s *Space) RegionOf(va VAddr) Region {
	return s.findAlloc(va).region
}

// LineAddr returns the address of the cache line containing a.
func LineAddr[A ~uint64](a A) A { return a &^ (LineSize - 1) }
