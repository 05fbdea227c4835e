package dx100

import (
	"fmt"

	"dx100/internal/memspace"
)

// MachineConfig sizes the functional machine.
type MachineConfig struct {
	Tiles     int // number of scratchpad tiles
	TileElems int // elements per tile (TILE)
	Regs      int // scalar register file size
}

// DefaultMachineConfig returns the Table 3 configuration: a 2 MB
// scratchpad of 32 tiles x 16K elements and 32 scalar registers.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{Tiles: 32, TileElems: 16384, Regs: 32}
}

// Machine is the functional DX100: it executes programs against
// simulated memory with no timing. The timing accelerator reuses it
// for all data movement, mirroring the paper's flow of a functional
// simulator verified against the timing simulation (§5).
type Machine struct {
	cfg   MachineConfig
	sp    *memspace.Space
	tiles []Tile
	regs  []uint64
	// zeros backs reads of unwritten tiles (see read); allocated the
	// first time one is read, and never written.
	zeros []uint64

	// Executed counts instructions executed (for tests/stats).
	Executed int
}

// NewMachine builds a machine over the address space.
func NewMachine(sp *memspace.Space, cfg MachineConfig) *Machine {
	m := &Machine{cfg: cfg, sp: sp, regs: make([]uint64, cfg.Regs)}
	m.tiles = make([]Tile, cfg.Tiles)
	for i := range m.tiles {
		m.tiles[i] = Tile{cap: cfg.TileElems}
	}
	return m
}

// read returns t's slots for an instruction's source operand; an
// unwritten tile reads as zeros.
func (m *Machine) read(t *Tile) []uint64 {
	if t.bits != nil {
		return t.bits
	}
	if m.zeros == nil {
		m.zeros = make([]uint64, m.cfg.TileElems)
	}
	return m.zeros
}

// Config returns the machine configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// Space returns the address space the machine operates on.
func (m *Machine) Space() *memspace.Space { return m.sp }

// Tile returns tile t for direct inspection or core-side access.
func (m *Machine) Tile(t uint8) *Tile {
	if int(t) >= len(m.tiles) {
		panic(fmt.Sprintf("dx100: tile %d out of range", t))
	}
	return &m.tiles[t]
}

// SetReg writes scalar register r.
func (m *Machine) SetReg(r uint8, v uint64) { m.regs[r] = v }

// Reg reads scalar register r.
func (m *Machine) Reg(r uint8) uint64 { return m.regs[r] }

// cond reports whether iteration i passes the instruction's condition
// tile.
func (m *Machine) cond(in Instr, i int) bool {
	if in.TC == NoTile {
		return true
	}
	return m.read(&m.tiles[in.TC])[i] != 0
}

// Exec executes one instruction functionally. It returns an error for
// malformed instructions; memory faults panic as they would trap in
// hardware.
func (m *Machine) Exec(in Instr) error {
	if err := in.Validate(); err != nil {
		return err
	}
	m.Executed++
	esz := in.DType.Size()
	switch in.Op {
	case SLD:
		start, count, stride := int64(m.regs[in.RS1]), int(m.regs[in.RS2]), int64(m.regs[in.RS3])
		if stride == 0 {
			stride = 1
		}
		td := &m.tiles[in.TD]
		if count > td.Cap() {
			return fmt.Errorf("dx100: SLD count %d exceeds tile capacity %d", count, td.Cap())
		}
		dst := td.write()
		for i := 0; i < count; i++ {
			if !m.cond(in, i) {
				continue
			}
			va := in.Base + memspace.VAddr((start+int64(i)*stride)*int64(esz))
			dst[i] = m.sp.ReadWord(va, esz)
		}
		td.SetSize(count)
	case SST:
		start, count, stride := int64(m.regs[in.RS1]), int(m.regs[in.RS2]), int64(m.regs[in.RS3])
		if stride == 0 {
			stride = 1
		}
		ts := &m.tiles[in.TS1]
		if count > ts.Size() {
			return fmt.Errorf("dx100: SST count %d exceeds source size %d", count, ts.Size())
		}
		src := m.read(ts)
		for i := 0; i < count; i++ {
			if !m.cond(in, i) {
				continue
			}
			va := in.Base + memspace.VAddr((start+int64(i)*stride)*int64(esz))
			m.sp.WriteWord(va, esz, src[i])
		}
	case ILD:
		ts, td := &m.tiles[in.TS1], &m.tiles[in.TD]
		n := ts.Size()
		idx, dst := m.read(ts), td.write()
		for i := 0; i < n; i++ {
			if !m.cond(in, i) {
				continue
			}
			va := in.Base + memspace.VAddr(int64(idx[i])*int64(esz))
			dst[i] = m.sp.ReadWord(va, esz)
		}
		td.SetSize(n)
	case IST:
		n := m.tiles[in.TS1].Size()
		idx, src := m.read(&m.tiles[in.TS1]), m.read(&m.tiles[in.TS2])
		for i := 0; i < n; i++ {
			if !m.cond(in, i) {
				continue
			}
			va := in.Base + memspace.VAddr(int64(idx[i])*int64(esz))
			m.sp.WriteWord(va, esz, src[i])
		}
	case IRMW:
		n := m.tiles[in.TS1].Size()
		idx, src := m.read(&m.tiles[in.TS1]), m.read(&m.tiles[in.TS2])
		for i := 0; i < n; i++ {
			if !m.cond(in, i) {
				continue
			}
			va := in.Base + memspace.VAddr(int64(idx[i])*int64(esz))
			old := m.sp.ReadWord(va, esz)
			m.sp.WriteWord(va, esz, aluEval(in.ALU, in.DType, old, src[i]))
		}
	case ALUV:
		a, b, td := &m.tiles[in.TS1], &m.tiles[in.TS2], &m.tiles[in.TD]
		n := a.Size()
		if b.Size() < n {
			return fmt.Errorf("dx100: ALUV source sizes differ (%d vs %d)", n, b.Size())
		}
		x, y, dst := m.read(a), m.read(b), td.write()
		for i := 0; i < n; i++ {
			if !m.cond(in, i) {
				continue
			}
			dst[i] = aluEval(in.ALU, in.DType, x[i], y[i])
		}
		td.SetSize(n)
	case ALUS:
		a, td := &m.tiles[in.TS1], &m.tiles[in.TD]
		s := m.regs[in.RS1]
		n := a.Size()
		x, dst := m.read(a), td.write()
		for i := 0; i < n; i++ {
			if !m.cond(in, i) {
				continue
			}
			dst[i] = aluEval(in.ALU, in.DType, x[i], s)
		}
		td.SetSize(n)
	case RNG:
		lo, hi := &m.tiles[in.TS1], &m.tiles[in.TS2]
		outer, inner := &m.tiles[in.TD], &m.tiles[in.TD2]
		stride := int64(m.regs[in.RS1])
		if stride == 0 {
			stride = 1
		}
		n := lo.Size()
		if hi.Size() < n {
			return fmt.Errorf("dx100: RNG bound sizes differ (%d vs %d)", n, hi.Size())
		}
		out := 0
		los, his := m.read(lo), m.read(hi)
		outs, ins := outer.write(), inner.write()
		for i := 0; i < n; i++ {
			if !m.cond(in, i) {
				continue
			}
			for j := int64(los[i]); j < int64(his[i]); j += stride {
				if out >= outer.Cap() {
					return fmt.Errorf("dx100: RNG output overflows tile capacity %d", outer.Cap())
				}
				outs[out] = uint64(i)
				ins[out] = uint64(j)
				out++
			}
		}
		outer.SetSize(out)
		inner.SetSize(out)
	default:
		return fmt.Errorf("dx100: unhandled opcode %s", in.Op)
	}
	return nil
}

// ExecProgram runs a sequence of instructions, stopping at the first
// error.
func (m *Machine) ExecProgram(prog []Instr) error {
	for i, in := range prog {
		if err := m.Exec(in); err != nil {
			return fmt.Errorf("instr %d (%s): %w", i, in.Op, err)
		}
	}
	return nil
}
