package emu

import (
	"encoding/binary"
	"math/bits"

	"glitchlab/internal/isa"
)

// CPUState is a copyable snapshot of the architectural CPU state: register
// file, flags and the cycle/step counters. It is everything CPU.Reset
// initializes, so SetState(State()) round-trips a mid-run machine exactly.
// Memory is snapshotted separately (Memory.Snapshot) because it is shared
// with the board model.
type CPUState struct {
	R      [16]uint32
	Flags  isa.Flags
	Cycles uint64
	Steps  uint64
}

// State captures the architectural CPU state.
func (c *CPU) State() CPUState {
	return CPUState{R: c.R, Flags: c.Flags, Cycles: c.Cycles, Steps: c.Steps}
}

// SetState restores a previously captured state. The CPU must still be
// attached to the same Memory the state was captured against; hooks and
// decode configuration are left untouched.
func (c *CPU) SetState(s CPUState) {
	c.R = s.R
	c.Flags = s.Flags
	c.Cycles = s.Cycles
	c.Steps = s.Steps
}

// snapPageShift sets the dirty-page granularity of memory snapshots:
// 256-byte pages. Campaign RAM is 4 KiB (16 pages, one bitmap word) and
// the board's SRAM is 16 KiB (64 pages, one word), so the no-dirty-pages
// fast path of Restore is a couple of word compares.
const snapPageShift = 8

type regionSnap struct {
	region *Region
	data   []byte
}

// MemSnapshot is a restorable copy of every writable region of a Memory,
// with dirty-page tracking armed so Restore only copies back the 256-byte
// pages actually written since the snapshot (or since the last Restore).
//
// Only stores through the CPU (Memory.store) mark pages dirty; writes that
// bypass the store path — Memory.Write, direct Region.Data edits — are not
// tracked and must be undone by the caller (the campaign runner restores
// its mutated branch halfword itself for exactly this reason). At most one
// snapshot per Memory is active at a time: taking a new one rebases the
// dirty tracking onto the new copy.
type MemSnapshot struct {
	regions []regionSnap
}

// Snapshot copies every writable region and arms dirty-page tracking on
// them. Read-only regions cannot drift and are skipped.
func (m *Memory) Snapshot() *MemSnapshot {
	s := &MemSnapshot{}
	for _, r := range m.regions {
		if r.Perm&PermWrite == 0 {
			continue
		}
		cp := make([]byte, len(r.Data))
		copy(cp, r.Data)
		pages := (len(r.Data) + (1 << snapPageShift) - 1) >> snapPageShift
		r.dirty = make([]uint64, (pages+63)/64)
		s.regions = append(s.regions, regionSnap{region: r, data: cp})
	}
	return s
}

// Restore copies the snapshot back over every dirtied page and clears the
// dirty bits, leaving memory byte-identical to the moment of Snapshot.
// With nothing dirtied it touches no data at all.
func (s *MemSnapshot) Restore() {
	for _, rs := range s.regions {
		r := rs.region
		for wi, w := range r.dirty {
			if w == 0 {
				continue
			}
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				lo := (wi<<6 + b) << snapPageShift
				hi := lo + 1<<snapPageShift
				if hi > len(r.Data) {
					hi = len(r.Data)
				}
				copy(r.Data[lo:hi], rs.data[lo:hi])
			}
			r.dirty[wi] = 0
		}
	}
}

// AppendDirty appends an image of the memory that differs from the
// snapshot: for each writable region, its dirty-page bitmap followed by
// the current contents of every dirty page. Pages outside the bitmap still
// hold the snapshot's bytes, so two images taken since the same Restore
// are equal only if every writable byte is equal. The converse need not
// hold: a page first dirtied between two images makes them unequal even
// if its bytes did not change. The same untracked-write caveat as Restore
// applies.
func (s *MemSnapshot) AppendDirty(dst []byte) []byte {
	for _, rs := range s.regions {
		r := rs.region
		for _, w := range r.dirty {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		for wi, w := range r.dirty {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				lo := (wi<<6 + b) << snapPageShift
				dst = append(dst, r.Data[lo:min(lo+1<<snapPageShift, len(r.Data))]...)
			}
		}
	}
	return dst
}
