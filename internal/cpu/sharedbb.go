package cpu

import (
	"sync"
	"sync/atomic"

	"darkarts/internal/isa"
)

// Fleet-scope shared decoded-block cache.
//
// The per-core block cache (bbcache.go) decodes each program into basic
// blocks privately. Without sharing, every core of every machine holds its
// own decoded copy of every block even when thousands of fleet machines run
// the same program image. A decoded block is a pure function of (code, entry
// pc, tag-table generation), so one copy serves them all: SharedBlocks is a
// process-wide cache keyed by program identity plus tag-table generation
// that cores consult on a local miss and publish into after a local decode.
// Its payoff is memory (one block per fleet, not per core) more than decode
// time.
//
// Sharing never changes architectural results — a shared block is
// bit-identical to the block the core would have decoded itself — and it
// never races: a block is immutable once buildBlock returns, so the store
// and every adopting core hold the same pointer. A firmware swap does not
// touch blocks; it moves the core to a new generation, whose blocks are
// fetched or decoded afresh.
//
// The cache appears on the hot path only on a local block-cache miss, which
// is a cold event (steady-state hit rates are >99.9%), so the RWMutex it
// takes is off every per-instruction and per-block fast path.

// maxSharedProgs bounds the shared cache's (program, generation) entry
// count. A full drop on overflow keeps the structure simple; fleets run far
// fewer distinct program images than this.
const maxSharedProgs = 256

// sharedKey identifies one program image decoded under one tag-table
// generation. A firmware update bumps the generation, naturally retiring
// the old entries as programs are next decoded.
type sharedKey struct {
	prog *isa.Program
	gen  uint64
}

// SharedBlocksStats is a point-in-time snapshot of the shared cache's
// counters.
type SharedBlocksStats struct {
	// Hits counts local-miss lookups satisfied by a previously published
	// block (a decode avoided); Misses counts lookups that found nothing
	// and fell through to a local decode.
	Hits   uint64
	Misses uint64
	// Published counts blocks published after a local decode; Evictions
	// counts whole-cache drops at the maxSharedProgs capacity bound.
	Published uint64
	Evictions uint64
}

// SharedBlocks is a process-wide decoded-basic-block cache shared by every
// core of every machine wired to it (cpu.Config.SharedBlocks). All methods
// are safe for concurrent use from any number of cores; the zero value is
// not usable — construct with NewSharedBlocks. A nil *SharedBlocks simply
// disables sharing (each core decodes privately, the pre-fleet behaviour).
//
// Everything here is a rebuildable decode cache: losing it costs decode
// work, never correctness (and never the RSX counter stream).
type SharedBlocks struct {
	// progs holds each (program, generation)'s published blocks, densely
	// indexed by entry pc (nil = not yet published).
	mu    sync.RWMutex
	progs map[sharedKey][]*bbBlock // guarded by mu

	hits      atomic.Uint64
	misses    atomic.Uint64
	published atomic.Uint64
	evictions atomic.Uint64
}

// NewSharedBlocks returns an empty fleet-scope decoded-block cache.
func NewSharedBlocks() *SharedBlocks {
	return &SharedBlocks{progs: map[sharedKey][]*bbBlock{}}
}

// Stats returns a snapshot of the cache counters.
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

// get returns the block published at pc (nil if none). Blocks are
// immutable, so the caller may cache the pointer itself.
//
//cryptojack:coldpath
func (s *SharedBlocks) get(prog *isa.Program, gen uint64, pc int) *bbBlock {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	var blk *bbBlock
	if blocks := s.progs[sharedKey{prog: prog, gen: gen}]; pc < len(blocks) {
		blk = blocks[pc]
	}
	s.mu.RUnlock()
	if blk == nil {
		s.misses.Add(1)
		return nil
	}
	s.hits.Add(1)
	return blk
}

// put publishes a freshly decoded block so other cores can adopt it,
// applying the capacity bound. Concurrent publishers of the same pc decode
// identical blocks, so last-writer-wins is harmless.
//
//cryptojack:coldpath
func (s *SharedBlocks) put(prog *isa.Program, gen uint64, pc int, blk *bbBlock) {
	if s == nil {
		return
	}
	k := sharedKey{prog: prog, gen: gen}
	s.mu.Lock()
	blocks := s.progs[k]
	if blocks == nil {
		if len(s.progs) >= maxSharedProgs {
			s.progs = map[sharedKey][]*bbBlock{}
			s.evictions.Add(1)
		}
		blocks = make([]*bbBlock, len(prog.Code))
		s.progs[k] = blocks
	}
	if pc < len(blocks) {
		blocks[pc] = blk
	}
	s.mu.Unlock()
	s.published.Add(1)
}
