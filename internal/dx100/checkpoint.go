package dx100

import (
	"fmt"

	"dx100/internal/sample/ckpt"
)

// CheckpointSave implements ckpt.Checkpointable: the accelerator's
// architectural state — scalar registers, scratchpad tiles, TLB
// contents, retirement counts. Timing state (units, Row Tables,
// request buffers) is never serialized: a checkpoint requires the
// accelerator idle with an empty instruction queue, which quiescence
// guarantees (an executing instruction implies pending events, and an
// undispatchable queued one implies a busy unit).
func (a *Accel) CheckpointSave(w *ckpt.Writer) error {
	if !a.Idle() {
		return fmt.Errorf("dx100 %s: accelerator busy at checkpoint (%d queued)", a.prefix, a.QueueLen())
	}
	for t, refs := range a.tileRefs {
		if refs != 0 {
			return fmt.Errorf("dx100 %s: tile %d has %d outstanding references at checkpoint", a.prefix, t, refs)
		}
	}
	m := a.m
	w.U32(uint32(len(m.regs)))
	for _, v := range m.regs {
		w.U64(v)
	}
	w.U32(uint32(len(m.tiles)))
	w.U32(uint32(m.cfg.TileElems))
	for i := range m.tiles {
		t := &m.tiles[i]
		w.Int(t.size)
		for j := 0; j < t.cap; j++ {
			w.U64(t.Raw(j))
		}
	}
	w.Int(m.Executed)
	w.Int(a.retired)
	// TLB contents in FIFO order (order holds exactly the live keys).
	w.U32(uint32(len(a.tlb.order)))
	for _, vpn := range a.tlb.order {
		w.U64(vpn)
		w.U64(a.tlb.entries[vpn])
	}
	w.Int(a.tlb.Hits)
	w.Int(a.tlb.Misses)
	return nil
}

// CheckpointLoad implements ckpt.Checkpointable.
func (a *Accel) CheckpointLoad(r *ckpt.Reader) error {
	if !a.Idle() {
		return fmt.Errorf("dx100 %s: restoring into a busy accelerator", a.prefix)
	}
	m := a.m
	if n := int(r.U32()); n != len(m.regs) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("dx100 %s: checkpoint has %d registers, machine has %d", a.prefix, n, len(m.regs))
	}
	for i := range m.regs {
		m.regs[i] = r.U64()
	}
	tiles, elems := int(r.U32()), int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if tiles != len(m.tiles) || elems != m.cfg.TileElems {
		return fmt.Errorf("dx100 %s: checkpoint scratchpad %dx%d, machine is %dx%d",
			a.prefix, tiles, elems, len(m.tiles), m.cfg.TileElems)
	}
	for i := range m.tiles {
		t := &m.tiles[i]
		t.size = r.Int()
		if t.size > 0 {
			t.write()
		}
		// An unwritten tile stays unallocated until the image holds a
		// nonzero word for it.
		for j := 0; j < t.cap; j++ {
			if v := r.U64(); v != 0 || t.bits != nil {
				t.write()[j] = v
			}
		}
	}
	m.Executed = r.Int()
	a.retired = r.Int()
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n > a.tlb.capacity {
		return fmt.Errorf("dx100 %s: checkpoint TLB has %d entries, capacity is %d", a.prefix, n, a.tlb.capacity)
	}
	a.tlb.entries = make(map[uint64]uint64, n)
	a.tlb.order = a.tlb.order[:0]
	for i := 0; i < n; i++ {
		vpn := r.U64()
		pfn := r.U64()
		a.tlb.entries[vpn] = pfn
		a.tlb.order = append(a.tlb.order, vpn)
	}
	a.tlb.Hits = r.Int()
	a.tlb.Misses = r.Int()
	return r.Err()
}
