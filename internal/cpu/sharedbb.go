package cpu

import (
	"sync"
	"sync/atomic"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// Decoded-block store.
//
// A decoded block is a pure function of (code, entry pc, tag-table
// generation), so one copy serves every core that runs the program.
// SharedBlocks owns one dense table per (program, generation), indexed by
// entry pc; each slot is an atomic pointer that starts nil and is filled by
// the first core to decode the block there. Every CPU has exactly one store:
// its own by default, or one a fleet wires into every machine
// (Config.SharedBlocks), so a program image is decoded once per generation
// per store rather than once per core.
//
// Sharing never changes architectural results — a block in the store is
// bit-identical to the block the core would have decoded itself — and it
// never races: a block is immutable once buildBlock returns, and a slot is
// filled by compare-and-swap, so every core reading it holds the same
// pointer. A firmware swap does not touch tables; it moves a core to the
// new generation's table.
//
// The store's mutex guards only the table index, taken when a core first
// runs a program under a generation (blockCache.attach) and never on the
// per-block path.

// maxSharedProgs bounds a store's (program, generation) table count, and
// with it each core's program map. A full drop on overflow keeps the
// structure simple; fleets run far fewer distinct program images than this.
const maxSharedProgs = 256

// sharedKey identifies one program image decoded under one tag-table
// generation. A firmware update bumps the generation, naturally retiring
// the old tables as programs next run.
type sharedKey struct {
	prog *isa.Program
	gen  uint64
}

// blockTable is one (program, generation)'s decoded blocks, densely indexed
// by entry pc (nil = not yet decoded). Entering the middle of a decoded
// block (a branch target, or a slice boundary that split a block) simply
// decodes a new block starting there; both stay in the table.
type blockTable []atomic.Pointer[bbBlock]

// SharedBlocksStats is a point-in-time snapshot of a store's counters.
type SharedBlocksStats struct {
	// Hits counts core attaches that found an existing table; Misses
	// counts tables created.
	Hits   uint64
	Misses uint64
	// Published counts blocks decoded into the store; Evictions counts
	// whole-store drops at the maxSharedProgs capacity bound.
	Published uint64
	Evictions uint64
}

// SharedBlocks is a decoded-basic-block store shared by every core of every
// CPU wired to it (Config.SharedBlocks). All methods are safe for
// concurrent use from any number of cores; the zero value is not usable —
// construct with NewSharedBlocks.
//
// Everything here is a rebuildable decode cache: losing it costs decode
// work, never correctness (and never the RSX counter stream).
type SharedBlocks struct {
	mu     sync.Mutex
	tables map[sharedKey]blockTable // guarded by mu
	passes map[passKey]*passEntry   // guarded by mu; recorded pass traces (pass.go)

	hits      atomic.Uint64
	misses    atomic.Uint64
	published atomic.Uint64
	evictions atomic.Uint64
}

// NewSharedBlocks returns an empty decoded-block store.
func NewSharedBlocks() *SharedBlocks {
	return &SharedBlocks{tables: map[sharedKey]blockTable{}, passes: map[passKey]*passEntry{}}
}

// Stats returns a snapshot of the store's counters (zero for nil).
func (s *SharedBlocks) Stats() SharedBlocksStats {
	if s == nil {
		return SharedBlocksStats{}
	}
	return SharedBlocksStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Published: s.published.Load(),
		Evictions: s.evictions.Load(),
	}
}

// table returns prog's block table under generation gen, creating it (and
// dropping every table first if the store is full) on first request. Cores
// that still hold a dropped table keep using it; it is no longer shared.
//
//cryptojack:coldpath
func (s *SharedBlocks) table(prog *isa.Program, gen uint64) blockTable {
	k := sharedKey{prog: prog, gen: gen}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[k]; ok {
		s.hits.Add(1)
		return t
	}
	if len(s.tables) >= maxSharedProgs {
		s.tables = map[sharedKey]blockTable{}
		s.evictions.Add(1)
	}
	t := make(blockTable, len(prog.Code))
	s.tables[k] = t
	s.misses.Add(1)
	return t
}

// decode builds the block at pc and stores it into t's empty slot. If
// another core filled the slot first, its block is returned instead, so all
// cores share one pointer per slot.
//
//cryptojack:coldpath
func (s *SharedBlocks) decode(t blockTable, code []isa.Inst, pc int, tags *microcode.TagTable) *bbBlock {
	blk := buildBlock(code, pc, tags)
	if !t[pc].CompareAndSwap(nil, blk) {
		return t[pc].Load()
	}
	s.published.Add(1)
	return blk
}
