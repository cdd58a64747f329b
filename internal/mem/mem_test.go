package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	for _, size := range []int{1, 2, 4, 8} {
		addr := uint64(0x1000)
		var want uint64 = 0xDEADBEEFCAFEBABE
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * size)) - 1
		}
		m.Write(addr, want, size)
		if got := m.Read(addr, size); got != want&mask {
			t.Errorf("size %d: Read = %#x, want %#x", size, got, want&mask)
		}
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if got := m.Read(0xABCD_0000, 8); got != 0 {
		t.Errorf("unwritten Read = %#x", got)
	}
	if got := m.LoadByte(42); got != 0 {
		t.Errorf("unwritten LoadByte = %#x", got)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // 8-byte access straddles the page boundary
	m.Write(addr, 0x1122334455667788, 8)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page Read = %#x", got)
	}
	// Byte-level check of little-endian layout across the boundary.
	if got := m.LoadByte(addr); got != 0x88 {
		t.Errorf("first byte = %#x", got)
	}
	if got := m.LoadByte(addr + 7); got != 0x11 {
		t.Errorf("last byte = %#x", got)
	}
}

func TestMemoryBytesRoundTrip(t *testing.T) {
	m := NewMemory()
	in := []byte("the quick brown fox jumps over the lazy dog")
	m.WriteBytes(0x2000, in)
	if got := m.ReadBytes(0x2000, len(in)); !bytes.Equal(got, in) {
		t.Errorf("ReadBytes = %q", got)
	}
}

func TestMemoryPropertyRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr %= 1 << 30 // keep the page map bounded
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * size)) - 1
		}
		m.Write(addr, v, size)
		return m.Read(addr, size) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryReset(t *testing.T) {
	m := NewMemory()
	m.Write(0, 99, 8)
	m.Reset()
	if m.Read(0, 8) != 0 || m.Footprint() != 0 {
		t.Error("Reset did not clear memory")
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "c", SizeBytes: 32 << 10, BlockSize: 64, Assoc: 8, LatencyCy: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero"},
		{Name: "odd", SizeBytes: 3000, BlockSize: 64, Assoc: 8},
		{Name: "blk", SizeBytes: 32 << 10, BlockSize: 48, Assoc: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s accepted", c.Name)
		}
	}
}

func TestHierarchyHitAfterMiss(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cold := h.LoadLatency(0, 0x4000)
	warm := h.LoadLatency(0, 0x4000)
	if cold <= warm {
		t.Errorf("cold latency %d <= warm latency %d", cold, warm)
	}
	if warm != h.cfg.L1D.LatencyCy {
		t.Errorf("warm hit latency = %d, want %d", warm, h.cfg.L1D.LatencyCy)
	}
	s := h.Stats()
	if s.L1DMisses != 1 || s.L1DHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHierarchySameBlockDifferentWordsHit(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig(), 1)
	h.LoadLatency(0, 0x8000)
	if lat := h.LoadLatency(0, 0x8000+56); lat != h.cfg.L1D.LatencyCy {
		t.Errorf("same-block access latency = %d", lat)
	}
}

func TestHierarchyCoherenceInvalidation(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig(), 2)
	addr := uint64(0x9000)
	h.LoadLatency(0, addr)  // core 0 caches the line (Exclusive)
	h.StoreLatency(1, addr) // core 1 writes: must invalidate core 0's copy
	if s := h.Stats(); s.Invalidations == 0 {
		t.Error("no invalidations recorded after remote store")
	}
	// Core 0's next load must miss again.
	if lat := h.LoadLatency(0, addr); lat == h.cfg.L1D.LatencyCy {
		t.Error("core 0 hit on an invalidated line")
	}
}

func TestHierarchyModifiedSnoop(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig(), 2)
	addr := uint64(0xA000)
	h.StoreLatency(0, addr) // core 0 holds Modified
	lat := h.LoadLatency(1, addr)
	// Remote Modified copy adds a cache-to-cache transfer penalty.
	if lat <= h.cfg.L1D.LatencyCy+h.cfg.L2.LatencyCy {
		t.Errorf("snoop load latency = %d, want extra transfer penalty", lat)
	}
}

// TestHierarchySharedReaders pins the snoop's Shared leg: a third reader
// that finds only Shared copies elsewhere must fill Shared too, not
// Exclusive (which would let its next store skip the invalidations).
func TestHierarchySharedReaders(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig(), 3)
	addr := uint64(0xB000)
	for core := 0; core < 3; core++ {
		h.LoadLatency(core, addr)
	}
	for core, l1 := range h.l1d {
		if st := l1.state(addr); st != mesiShared {
			t.Errorf("core %d holds the line in state %d, want Shared (%d)", core, st, mesiShared)
		}
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig(), 1)
	cold := h.FetchLatency(0, 0)
	warm := h.FetchLatency(0, 4)
	if cold <= warm || warm != h.cfg.L1I.LatencyCy {
		t.Errorf("fetch latencies cold=%d warm=%d", cold, warm)
	}
}

func TestHierarchyEviction(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h, _ := NewHierarchy(cfg, 1)
	// Touch assoc+1 blocks mapping to the same set to force an eviction.
	setStride := uint64(cfg.L1D.SizeBytes / cfg.L1D.Assoc)
	for i := 0; i <= cfg.L1D.Assoc; i++ {
		h.LoadLatency(0, uint64(i)*setStride)
	}
	// The first block must have been evicted (LRU).
	if lat := h.LoadLatency(0, 0); lat == cfg.L1D.LatencyCy {
		t.Error("expected L1D miss after eviction")
	}
}

func TestHierarchyRejectsBadConfig(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.DRAMLatency = 0
	if _, err := NewHierarchy(cfg, 4); err == nil {
		t.Error("accepted zero DRAM latency")
	}
	if _, err := NewHierarchy(DefaultHierarchyConfig(), 0); err == nil {
		t.Error("accepted zero cores")
	}
}
