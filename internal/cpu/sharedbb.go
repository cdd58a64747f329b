package cpu

import (
	"sync"
	"sync/atomic"

	"darkarts/internal/isa"
)

// Fleet-scope shared decoded-block cache.
//
// The per-core block cache (bbcache.go) decodes each program into basic
// blocks privately: every core of every machine pays the decode and
// tag-count cost again even when thousands of fleet machines run the same
// program image. A decoded block is a pure function of (code, entry pc,
// tag-table generation), so the work can be shared: SharedBlocks is a
// process-wide cache keyed by program identity plus tag-table generation
// that cores consult on a local miss and publish into after a local decode.
//
// Sharing never changes architectural results — a shared block is
// bit-identical to the block the core would have decoded itself — and it
// never races: published blocks are immutable, and a core that adopts one
// copies the struct, because a firmware swap re-tags the core's cached
// blocks in place (progBlocks.retag).
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
//
//cryptojack:derived
type sharedKey struct {
	prog *isa.Program
	gen  uint64
}

// sharedProg holds one program's published blocks, densely indexed by entry
// pc (nil = not yet published).
//
//cryptojack:derived
type sharedProg struct {
	mu     sync.RWMutex
	blocks []*bbBlock // guarded by mu
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
//
//cryptojack:derived
type SharedBlocks struct {
	mu    sync.RWMutex
	progs map[sharedKey]*sharedProg // guarded by mu

	hits      atomic.Uint64
	misses    atomic.Uint64
	published atomic.Uint64
	evictions atomic.Uint64
}

// NewSharedBlocks returns an empty fleet-scope decoded-block cache.
func NewSharedBlocks() *SharedBlocks {
	return &SharedBlocks{progs: map[sharedKey]*sharedProg{}}
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

// table returns the program's block table for gen, creating it when create
// is set (and applying the capacity bound). Returns nil when absent and
// create is false.
//
//cryptojack:coldpath
func (s *SharedBlocks) table(prog *isa.Program, gen uint64, create bool) *sharedProg {
	k := sharedKey{prog: prog, gen: gen}
	s.mu.RLock()
	sp := s.progs[k]
	s.mu.RUnlock()
	if sp != nil || !create {
		return sp
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp = s.progs[k]; sp != nil {
		return sp
	}
	if len(s.progs) >= maxSharedProgs {
		s.progs = map[sharedKey]*sharedProg{}
		s.evictions.Add(1)
	}
	sp = &sharedProg{blocks: make([]*bbBlock, len(prog.Code))}
	s.progs[k] = sp
	return sp
}

// get returns a private copy of the published block at pc (nil if none).
// The copy shares the immutable ops/hist slices but owns its RSX pre-counts,
// so the caller may re-tag it without racing other cores.
//
//cryptojack:coldpath
func (s *SharedBlocks) get(prog *isa.Program, gen uint64, pc int) *bbBlock {
	if s == nil {
		return nil
	}
	sp := s.table(prog, gen, false)
	if sp == nil {
		s.misses.Add(1)
		return nil
	}
	sp.mu.RLock()
	var blk *bbBlock
	if pc < len(sp.blocks) {
		blk = sp.blocks[pc]
	}
	sp.mu.RUnlock()
	if blk == nil {
		s.misses.Add(1)
		return nil
	}
	s.hits.Add(1)
	cp := *blk
	return &cp
}

// put publishes a copy of a freshly decoded block so other cores can adopt
// it; the publisher keeps re-tagging its own. Concurrent publishers of the
// same pc decode identical blocks, so last-writer-wins is harmless.
//
//cryptojack:coldpath
func (s *SharedBlocks) put(prog *isa.Program, gen uint64, pc int, blk *bbBlock) {
	if s == nil {
		return
	}
	sp := s.table(prog, gen, true)
	cp := *blk
	sp.mu.Lock()
	if pc < len(sp.blocks) {
		sp.blocks[pc] = &cp
	}
	sp.mu.Unlock()
	s.published.Add(1)
}
