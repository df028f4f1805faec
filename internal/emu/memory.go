// Package emu implements an ARMv6-M Thumb CPU emulator: a region-based
// memory map, an execute loop with the full flag semantics of the Thumb-16
// subset, and the fault taxonomy the paper's emulation campaign classifies
// results into (bad read, bad fetch, invalid instruction).
package emu

import (
	"fmt"
	"sort"
)

// Perm is a memory-region permission bitmask.
type Perm uint8

// Region permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Region is a contiguous mapped memory range.
type Region struct {
	Name string
	Base uint32
	Data []byte
	Perm Perm

	// dirty, when non-nil, is the armed dirty-page bitmap (one bit per
	// 256-byte page, see snapPageShift): Memory.store marks the pages it
	// touches so MemSnapshot.Restore can copy back only what changed.
	dirty []uint64
}

func (r *Region) contains(addr uint32, size uint32) bool {
	n := uint32(len(r.Data))
	return addr >= r.Base && size <= n && addr-r.Base <= n-size
}

// Memory is a sparse, region-based memory map.
type Memory struct {
	regions []*Region
}

// NewMemory returns an empty memory map.
func NewMemory() *Memory {
	return &Memory{}
}

// Map adds a region. Overlapping regions are rejected.
func (m *Memory) Map(name string, base uint32, size uint32, perm Perm) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("emu: region %q has zero size", name)
	}
	for _, r := range m.regions {
		if base < r.Base+uint32(len(r.Data)) && r.Base < base+size {
			return nil, fmt.Errorf("emu: region %q overlaps %q", name, r.Name)
		}
	}
	reg := &Region{Name: name, Base: base, Data: make([]byte, size), Perm: perm}
	m.regions = append(m.regions, reg)
	sort.Slice(m.regions, func(i, j int) bool {
		return m.regions[i].Base < m.regions[j].Base
	})
	return reg, nil
}

// Write copies data into mapped memory (for loading programs); it bypasses
// permission checks.
func (m *Memory) Write(addr uint32, data []byte) error {
	for _, r := range m.regions {
		if r.contains(addr, uint32(len(data))) {
			copy(r.Data[addr-r.Base:], data)
			return nil
		}
	}
	return fmt.Errorf("emu: write of %d bytes at %#x outside mapped memory",
		len(data), addr)
}

// Region returns the region containing [addr, addr+size).
func (m *Memory) Region(addr, size uint32) (*Region, bool) {
	for _, r := range m.regions {
		if r.contains(addr, size) {
			return r, true
		}
	}
	return nil, false
}

func (m *Memory) load(addr, size uint32) (uint32, *Region, bool) {
	r, ok := m.Region(addr, size)
	if !ok || r.Perm&PermRead == 0 {
		return 0, nil, false
	}
	off := addr - r.Base
	var v uint32
	for i := uint32(0); i < size; i++ {
		v |= uint32(r.Data[off+i]) << (8 * i)
	}
	return v, r, true
}

func (m *Memory) store(addr, size, val uint32) (*Region, bool) {
	r, ok := m.Region(addr, size)
	if !ok || r.Perm&PermWrite == 0 {
		return nil, false
	}
	off := addr - r.Base
	for i := uint32(0); i < size; i++ {
		r.Data[off+i] = byte(val >> (8 * i))
	}
	if r.dirty != nil {
		p := off >> snapPageShift
		r.dirty[p>>6] |= 1 << (p & 63)
		if p2 := (off + size - 1) >> snapPageShift; p2 != p {
			r.dirty[p2>>6] |= 1 << (p2 & 63)
		}
	}
	return r, true
}

// StoreWord writes a 32-bit little-endian word the way a CPU store does,
// marking the page dirty for an armed snapshot, but without the CPU's store
// hooks (no peripheral side effects). It reports false for unmapped or
// read-only addresses.
func (m *Memory) StoreWord(addr, val uint32) bool {
	_, ok := m.store(addr, 4, val)
	return ok
}

// ReadWord reads a 32-bit little-endian word, bypassing permissions (used by
// post-mortem inspection).
func (m *Memory) ReadWord(addr uint32) (uint32, bool) {
	v, _, ok := m.load(addr, 4)
	return v, ok
}
