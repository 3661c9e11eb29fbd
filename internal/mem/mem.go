// Package mem implements the GPU's device (global) memory: a word-addressed
// arena with a named bump allocator and host-side access helpers. Addresses
// are byte addresses; all simulated accesses are 4-byte-word granular, which
// is also the granularity at which ScoRD tracks race metadata.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a device byte address.
type Addr uint64

// WordBytes is the access and metadata-tracking granularity.
const WordBytes = 4

// Allocation describes one named region of device memory.
type Allocation struct {
	Name string
	Base Addr
	Size uint64 // bytes
}

// Memory is the device memory arena. The backing words hold the
// authoritative globally-visible value of every location (conceptually the
// L2 + DRAM contents; per-SM L1s keep possibly-stale copies on top). They
// are allocated on the first data access, so a Memory used only as an
// allocation map (trace replay and analysis) never pays for them.
type Memory struct {
	words  []uint32 // nil until the first data access
	size   uint64
	next   Addr
	allocs []Allocation
}

// New creates an arena of the given size in bytes (must be a positive
// multiple of the word size).
func New(size uint64) *Memory {
	if size == 0 || size%WordBytes != 0 {
		panic(fmt.Sprintf("mem: invalid arena size %d", size))
	}
	return &Memory{size: size}
}

// Size returns the arena size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Used returns the number of bytes handed out by Alloc so far.
func (m *Memory) Used() uint64 { return uint64(m.next) }

// place computes where Alloc would put size bytes: aligned to 128 bytes so
// distinct allocations never share a cache line, padded to whole words.
// ok is false if they do not fit; the arithmetic is overflow-safe.
func (m *Memory) place(size uint64) (base, padded uint64, ok bool) {
	const align = 128
	base = (uint64(m.next) + align - 1) &^ (align - 1)
	padded = (size + WordBytes - 1) &^ (WordBytes - 1)
	return base, padded, padded >= size && base <= m.size && padded <= m.size-base
}

// Fits reports whether Alloc of size bytes would succeed, so callers
// decoding untrusted sizes can fail with an error instead of a panic.
func (m *Memory) Fits(size uint64) bool {
	_, _, ok := m.place(size)
	return ok
}

// Alloc reserves size bytes under the given name (see place for the
// layout). It panics if the arena is exhausted — benchmark inputs are
// sized by the caller.
func (m *Memory) Alloc(name string, size uint64) Addr {
	base, padded, ok := m.place(size)
	if !ok {
		panic(fmt.Sprintf("mem: out of device memory allocating %q (%d bytes, %d used of %d)",
			name, size, m.next, m.size))
	}
	m.allocs = append(m.allocs, Allocation{Name: name, Base: Addr(base), Size: padded})
	m.next = Addr(base + padded)
	return Addr(base)
}

// AllocWords reserves n 4-byte words under the given name.
func (m *Memory) AllocWords(name string, n int) Addr {
	return m.Alloc(name, uint64(n)*WordBytes)
}

// Reset drops all allocations and zeroes the arena.
func (m *Memory) Reset() {
	m.next = 0
	m.allocs = m.allocs[:0]
	clear(m.words)
}

// FindAlloc returns the allocation with the given name.
func (m *Memory) FindAlloc(name string) (Allocation, bool) {
	for _, al := range m.allocs {
		if al.Name == name {
			return al, true
		}
	}
	return Allocation{}, false
}

// Locate maps an address to the allocation containing it. The second result
// is false for addresses outside every allocation.
func (m *Memory) Locate(a Addr) (Allocation, bool) {
	i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].Base > a })
	if i == 0 {
		return Allocation{}, false
	}
	al := m.allocs[i-1]
	if uint64(a) < uint64(al.Base)+al.Size {
		return al, true
	}
	return Allocation{}, false
}

// Describe renders an address as "name+offset" for race reports, or a raw
// hex address when it falls outside every allocation.
func (m *Memory) Describe(a Addr) string {
	if al, ok := m.Locate(a); ok {
		return fmt.Sprintf("%s+%#x", al.Name, uint64(a-al.Base))
	}
	return fmt.Sprintf("%#x", uint64(a))
}

// WordIndex converts a byte address to its word index, panicking on
// out-of-range addresses (a simulator bug, not a program error).
func (m *Memory) WordIndex(a Addr) int {
	if uint64(a) >= m.size {
		panic(fmt.Sprintf("mem: address %#x outside arena of %d bytes", uint64(a), m.size))
	}
	return int(a / WordBytes)
}

// data returns the backing words, allocating them on first use.
func (m *Memory) data() []uint32 {
	if m.words == nil {
		m.words = make([]uint32, m.size/WordBytes)
	}
	return m.words
}

// Read returns the globally-visible value of the word at a.
func (m *Memory) Read(a Addr) uint32 { return m.data()[m.WordIndex(a)] }

// Write sets the globally-visible value of the word at a.
func (m *Memory) Write(a Addr, v uint32) { m.data()[m.WordIndex(a)] = v }

// Words returns the number of words in the arena.
func (m *Memory) Words() int { return int(m.size / WordBytes) }

// HostWrite copies values into device memory starting at base, as a
// cudaMemcpy(HostToDevice) would. It is only legal between kernels.
func (m *Memory) HostWrite(base Addr, vals []uint32) {
	for i, v := range vals {
		m.Write(base+Addr(i*WordBytes), v)
	}
}

// HostRead copies n words out of device memory starting at base.
func (m *Memory) HostRead(base Addr, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.Read(base + Addr(i*WordBytes))
	}
	return out
}

// HostFill sets n words starting at base to v.
func (m *Memory) HostFill(base Addr, n int, v uint32) {
	for i := 0; i < n; i++ {
		m.Write(base+Addr(i*WordBytes), v)
	}
}
