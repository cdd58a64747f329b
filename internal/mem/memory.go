package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// PageBits selects a 4KB sparse page size.
const PageBits = 12

// PageSize is the backing-page granularity of the sparse memory.
const PageSize = 1 << PageBits

const pageSize = PageSize

// Memory is a sparse, little-endian flat physical memory shared by all
// cores of a CPU; coherence timing is modelled separately by Hierarchy.
//
// The page table is safe for concurrent use: pages are created under a
// lock and their pointers stay stable for the lifetime of the Memory
// (until Reset), so cores may cache them in per-core TLBs (see
// internal/cpu). Byte-level access is NOT synchronised — the simulated
// kernel guarantees a task occupies at most one core per quantum and
// tasks own disjoint regions, so concurrent cores never touch the same
// addresses. Reset must not be called while cores are executing.
type Memory struct {
	mu    sync.RWMutex
	pages map[uint64]*[pageSize]byte // guarded by mu
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	idx := addr >> PageBits
	m.mu.RLock()
	p := m.pages[idx]
	m.mu.RUnlock()
	if p != nil || !create {
		return p
	}
	m.mu.Lock()
	if p = m.pages[idx]; p == nil {
		p = new([pageSize]byte)
		m.pages[idx] = p
	}
	m.mu.Unlock()
	return p
}

// PagePtr returns the stable backing page containing addr, allocating it
// when create is set (nil when absent and !create). Callers may cache the
// pointer: pages are never replaced until Reset.
//
// The per-core TLB (internal/cpu) is the hot path; this locked fallback
// is its acknowledged slow path.
//
//cryptojack:coldpath
func (m *Memory) PagePtr(addr uint64, create bool) *[PageSize]byte {
	return m.page(addr, create)
}

// LoadByte returns the byte at addr (0 if the page was never written).
func (m *Memory) LoadByte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read returns size bytes at addr as a little-endian unsigned integer.
// size must be 1, 2, 4 or 8.
//
//cryptojack:coldpath
func (m *Memory) Read(addr uint64, size int) uint64 {
	// Fast path: access within a single page.
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores size bytes of v at addr, little endian.
//
//cryptojack:coldpath
func (m *Memory) Write(addr uint64, v uint64, size int) {
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := m.page(addr, true)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// WriteBytes copies b into memory starting at addr, page chunk at a time.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr, true)
		n := copy(p[addr&(pageSize-1):], b)
		addr += uint64(n)
		b = b[n:]
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	rest := out
	for len(rest) > 0 {
		p := m.page(addr, false)
		off := addr & (pageSize - 1)
		span := pageSize - int(off)
		if span > len(rest) {
			span = len(rest)
		}
		if p != nil {
			copy(rest, p[off:int(off)+span])
		}
		addr += uint64(span)
		rest = rest[span:]
	}
	return out
}

// Pages returns the number of 4KB pages currently mapped (the mem_pages
// observability gauge samples this at every quantum merge).
func (m *Memory) Pages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Footprint returns the number of bytes of backing storage allocated so far.
func (m *Memory) Footprint() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.pages)) * pageSize
}

// Reset drops all contents. It must not run concurrently with execution:
// cores cache page pointers and would keep writing the orphaned pages.
func (m *Memory) Reset() {
	m.mu.Lock()
	m.pages = make(map[uint64]*[pageSize]byte)
	m.mu.Unlock()
}

// String summarises the memory for debugging.
func (m *Memory) String() string {
	m.mu.RLock()
	n := len(m.pages)
	m.mu.RUnlock()
	return fmt.Sprintf("mem{%d pages, %d bytes}", n, int64(n)*pageSize)
}
