package mem

import "fmt"

// Line coherence states (MESI).
type mesiState uint8

const (
	mesiInvalid mesiState = iota
	mesiShared
	mesiExclusive
	mesiModified
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	BlockSize int
	Assoc     int
	LatencyCy int // hit latency in cycles
}

func (c CacheConfig) sets() int { return c.SizeBytes / (c.BlockSize * c.Assoc) }

// Validate checks the geometry is a usable power-of-two organisation.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.BlockSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.BlockSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by block*assoc", c.Name, c.SizeBytes)
	}
	s := c.sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, s)
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockSize)
	}
	return nil
}

type cacheLine struct {
	tag   uint64
	state mesiState
	lru   uint64 // last-touch tick for LRU replacement
}

// cache is a set-associative tag store. It models timing/occupancy only; the
// data itself always lives in Memory (simulator cores interleave, so this is
// exact for the counter stream the defense observes).
type cache struct {
	cfg      CacheConfig
	sets     [][]cacheLine
	setMask  uint64
	setBits  uint
	blkBits  uint
	tick     uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
	Invalids uint64 // coherence invalidations received
}

func newCache(cfg CacheConfig) *cache {
	nsets := cfg.sets()
	sets := make([][]cacheLine, nsets)
	for i := range sets {
		sets[i] = make([]cacheLine, cfg.Assoc)
	}
	blkBits := uint(0)
	for 1<<blkBits != cfg.BlockSize {
		blkBits++
	}
	setBits := uint(0)
	for 1<<setBits != nsets {
		setBits++
	}
	return &cache{cfg: cfg, sets: sets, setMask: uint64(nsets - 1), setBits: setBits, blkBits: blkBits}
}

func (c *cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.blkBits
	return blk & c.setMask, blk >> c.setBits
}

// lookup probes for the block containing addr. On hit it refreshes LRU.
func (c *cache) lookup(addr uint64) (way int, hit bool) {
	c.tick++
	set, tag := c.index(addr)
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.state != mesiInvalid && ln.tag == tag {
			ln.lru = c.tick
			c.Hits++
			return w, true
		}
	}
	c.Misses++
	return 0, false
}

// fill installs the block containing addr in the given state, evicting LRU.
func (c *cache) fill(addr uint64, st mesiState) {
	set, tag := c.index(addr)
	victim, oldest := 0, ^uint64(0)
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.state == mesiInvalid {
			victim = w
			oldest = 0
			break
		}
		if ln.lru < oldest {
			victim, oldest = w, ln.lru
		}
	}
	if c.sets[set][victim].state != mesiInvalid {
		c.Evicts++
	}
	c.tick++
	c.sets[set][victim] = cacheLine{tag: tag, state: st, lru: c.tick}
}

// setState updates the state of a resident block (no-op when absent).
func (c *cache) setState(addr uint64, st mesiState) {
	set, tag := c.index(addr)
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.state != mesiInvalid && ln.tag == tag {
			ln.state = st
			return
		}
	}
}

// invalidate drops the block containing addr if present; reports presence.
func (c *cache) invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.state != mesiInvalid && ln.tag == tag {
			ln.state = mesiInvalid
			c.Invalids++
			return true
		}
	}
	return false
}

func (c *cache) state(addr uint64) mesiState {
	set, tag := c.index(addr)
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.state != mesiInvalid && ln.tag == tag {
			return ln.state
		}
	}
	return mesiInvalid
}

// HierarchyConfig configures the full memory system (per-core L1I/L1D,
// shared L2, DRAM latency). Defaults mirror the paper's Table I.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	DRAMLatency  int // cycles
	// NextLinePrefetch enables a next-line instruction prefetcher: every
	// demand fetch also installs the sequential next block into the L1I,
	// hiding fetch misses in straight-line code.
	NextLinePrefetch bool
}

// DefaultHierarchyConfig returns the Table I configuration.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         CacheConfig{Name: "L1I", SizeBytes: 32 << 10, BlockSize: 64, Assoc: 8, LatencyCy: 2},
		L1D:         CacheConfig{Name: "L1D", SizeBytes: 32 << 10, BlockSize: 64, Assoc: 8, LatencyCy: 2},
		L2:          CacheConfig{Name: "L2", SizeBytes: 2 << 20, BlockSize: 64, Assoc: 16, LatencyCy: 20},
		DRAMLatency: 120, // ~50ns DDR4-2400 at 2.0GHz plus controller overhead
	}
}

// Validate checks all levels.
func (h HierarchyConfig) Validate() error {
	for _, c := range []CacheConfig{h.L1I, h.L1D, h.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if h.DRAMLatency <= 0 {
		return fmt.Errorf("non-positive DRAM latency")
	}
	return nil
}

// Hierarchy is the timing model for a multi-core cache system: one L1I and
// L1D per core, one shared inclusive-enough L2, and a snooping MESI-lite
// protocol between the L1Ds.
type Hierarchy struct {
	cfg  HierarchyConfig
	l1i  []*cache
	l1d  []*cache
	l2   *cache
	DRAM uint64 // number of DRAM accesses (for stats)
	// Prefetches counts next-line prefetch fills issued.
	Prefetches uint64
}

// NewHierarchy builds a hierarchy for nCores cores.
func NewHierarchy(cfg HierarchyConfig, nCores int) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nCores <= 0 {
		return nil, fmt.Errorf("non-positive core count %d", nCores)
	}
	h := &Hierarchy{cfg: cfg, l2: newCache(cfg.L2)}
	for i := 0; i < nCores; i++ {
		h.l1i = append(h.l1i, newCache(cfg.L1I))
		h.l1d = append(h.l1d, newCache(cfg.L1D))
	}
	return h, nil
}

// Cores returns the number of cores the hierarchy serves.
func (h *Hierarchy) Cores() int { return len(h.l1d) }

// FetchLatency returns the latency in cycles to fetch the instruction block
// at addr for core.
func (h *Hierarchy) FetchLatency(core int, addr uint64) int {
	l1 := h.l1i[core]
	if _, hit := l1.lookup(addr); hit {
		return l1.cfg.LatencyCy
	}
	lat := l1.cfg.LatencyCy + h.l2Latency(addr, false)
	l1.fill(addr, mesiShared)
	if h.cfg.NextLinePrefetch {
		next := addr + uint64(h.cfg.L1I.BlockSize)
		if _, hit := l1.lookup(next); !hit {
			h.Prefetches++
			h.l2Latency(next, false) // bring it at least into L2
			l1.fill(next, mesiShared)
		}
	}
	return lat
}

// LoadLatency returns the latency in cycles for core to load from addr.
func (h *Hierarchy) LoadLatency(core int, addr uint64) int {
	l1 := h.l1d[core]
	if _, hit := l1.lookup(addr); hit {
		return l1.cfg.LatencyCy
	}
	// Snoop other cores: a Modified copy elsewhere must be downgraded
	// (modelled as an extra L2-latency transfer).
	extra := 0
	shared := false
	for i, other := range h.l1d {
		if i == core {
			continue
		}
		switch other.state(addr) {
		case mesiModified:
			other.setState(addr, mesiShared)
			extra += h.cfg.L2.LatencyCy
			shared = true
		case mesiExclusive:
			other.setState(addr, mesiShared)
			shared = true
		case mesiShared:
			shared = true
		case mesiInvalid:
			// No copy in this core: nothing to downgrade.
		}
	}
	lat := l1.cfg.LatencyCy + h.l2Latency(addr, false) + extra
	if shared {
		l1.fill(addr, mesiShared)
	} else {
		l1.fill(addr, mesiExclusive)
	}
	return lat
}

// StoreLatency returns the latency in cycles for core to store to addr.
func (h *Hierarchy) StoreLatency(core int, addr uint64) int {
	l1 := h.l1d[core]
	if _, hit := l1.lookup(addr); hit {
		st := l1.state(addr)
		if st == mesiModified || st == mesiExclusive {
			l1.setState(addr, mesiModified)
			return l1.cfg.LatencyCy
		}
		// Shared -> need invalidations (upgrade miss).
		h.invalidateOthers(core, addr)
		l1.setState(addr, mesiModified)
		return l1.cfg.LatencyCy + h.cfg.L2.LatencyCy
	}
	h.invalidateOthers(core, addr)
	lat := l1.cfg.LatencyCy + h.l2Latency(addr, true)
	l1.fill(addr, mesiModified)
	return lat
}

func (h *Hierarchy) invalidateOthers(core int, addr uint64) {
	for i, other := range h.l1d {
		if i != core {
			other.invalidate(addr)
		}
	}
}

func (h *Hierarchy) l2Latency(addr uint64, forWrite bool) int {
	if _, hit := h.l2.lookup(addr); hit {
		return h.l2.cfg.LatencyCy
	}
	h.DRAM++
	st := mesiShared
	if forWrite {
		st = mesiModified
	}
	h.l2.fill(addr, st)
	return h.l2.cfg.LatencyCy + h.cfg.DRAMLatency
}

// Stats summarises hit/miss counts for reporting.
type Stats struct {
	L1IHits, L1IMisses uint64
	L1DHits, L1DMisses uint64
	L2Hits, L2Misses   uint64
	DRAMAccesses       uint64
	Invalidations      uint64
}

// Stats returns aggregate counters across cores.
func (h *Hierarchy) Stats() Stats {
	var s Stats
	for _, c := range h.l1i {
		s.L1IHits += c.Hits
		s.L1IMisses += c.Misses
	}
	for _, c := range h.l1d {
		s.L1DHits += c.Hits
		s.L1DMisses += c.Misses
		s.Invalidations += c.Invalids
	}
	s.L2Hits, s.L2Misses = h.l2.Hits, h.l2.Misses
	s.DRAMAccesses = h.DRAM
	return s
}
