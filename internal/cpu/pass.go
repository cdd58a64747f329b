package cpu

import (
	"bytes"
	"math/bits"
	"slices"
	"sync"

	"darkarts/internal/counters"
	"darkarts/internal/isa"
	"darkarts/internal/mem"
)

// Pass replay.
//
// A looping task restarts its program at every HALT, and Reset puts the
// context back at entry with the program data rewritten. When a pass from
// entry to HALT touches only the task's own region and leaves that region
// as it found it after the previous pass, every pass retires the same
// instructions in the same order. The counters a pass owes the kernel are
// then a function of the pass's control flow and the live tag table alone,
// so replaying the recorded control flow through the block table charges
// exactly what the block engine would, without executing anything.
//
// A PassTrace is that control flow: the straight-line runs of one pass,
// recorded once per block store and (program, load base) by a cold
// recorder on a private core. The recorder refuses a program whose pass
// loads or stores outside its region, faults, runs past maxPassInsts (or
// whose region exceeds maxPassRegion), or whose second pass differs from
// its first in runs or in region bytes; by induction every later pass
// then equals the second.
//
// A PassReplay is one task's replay state: a cursor at the task's
// virtual position in its current pass, while the context and the region
// in memory stay at the last point the task really executed. Sync brings
// them forward by executing the skipped instructions on a detached core
// that charges no counter. The one assumption nothing checks is that no
// other task writes into a replaying task's region (SpawnProgram regions
// are disjoint).

// maxPassInsts bounds a recorded pass. The catalog kernels' passes are
// 19k–75k instructions; a program that runs longer than this between
// HALTs gains little from replay and is refused.
const maxPassInsts = 1 << 22

// maxPassRegion bounds the region of a recorded program, since the trace
// keeps a copy of it. The catalog kernels' regions are under 100 KiB.
const maxPassRegion = 256 << 10

// passRun is one straight-line run of a pass: n instructions at
// consecutive PCs starting at pc. A run ends only where the next PC is not
// pc+n, which takes a taken control transfer or the HALT, and blocks end
// at both; so a block entered anywhere inside a run never extends past the
// run's end.
type passRun struct {
	pc, n uint32
}

// PassTrace is the recorded pass of a halting program loaded at one base.
// It is immutable once recorded and shared by every task that replays it.
type PassTrace struct {
	prog  *isa.Program
	base  uint64
	runs  []passRun
	insts uint64 // instructions per pass, HALT included
	// region is the task region's content after any pass.
	region []byte
}

// Len returns the number of instructions one pass retires.
func (t *PassTrace) Len() uint64 { return t.insts }

// passKey identifies one program image loaded at one base.
type passKey struct {
	prog *isa.Program
	base uint64
}

// passEntry is a store's slot for one passKey: once guards the recording,
// so concurrent first requests record once and all see the same result.
type passEntry struct {
	once  sync.Once
	trace *PassTrace // nil: refused
}

// PassTrace returns prog's recorded pass at load base, recording it on the
// first request for the pair; nil when the recorder refused the program.
// Concurrent first requests record once and share the result.
//
//cryptojack:coldpath
func (s *SharedBlocks) PassTrace(prog *isa.Program, base uint64) *PassTrace {
	k := passKey{prog: prog, base: base}
	s.mu.Lock()
	e := s.passes[k]
	if e == nil {
		if len(s.passes) >= maxSharedProgs {
			s.passes = map[passKey]*passEntry{}
		}
		e = &passEntry{}
		s.passes[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.trace = recordPass(prog, base) })
	return e.trace
}

// detachedCore returns a fast-mode step core over m that belongs to no
// CPU: its counter bank, TLB and block statistics are its own and are
// never reported.
//
//cryptojack:coldpath
func detachedCore(m *mem.Memory) *Core {
	return &Core{mem: m, bank: counters.New(false), cfg: Config{Mode: ModeFast, NoBlockCache: true}}
}

// recordPass runs two passes of prog at base on a private core and memory
// and returns their trace, or nil if either pass is refused or the second
// differs from the first.
//
//cryptojack:coldpath
func recordPass(prog *isa.Program, base uint64) *PassTrace {
	size := RegionSize(prog)
	if size > maxPassRegion {
		return nil
	}
	m := mem.NewMemory()
	c := detachedCore(m)
	c.ctx = &ArchContext{}
	var first *PassTrace
	for pass := 0; pass < 2; pass++ {
		c.ctx.Reset(prog, m, base)
		runs, n, ok := c.recordRuns(base, size)
		if !ok {
			return nil
		}
		region := m.ReadBytes(base, int(size))
		if first == nil {
			first = &PassTrace{prog: prog, base: base, runs: runs, insts: n, region: region}
			continue
		}
		if !slices.Equal(runs, first.runs) || !bytes.Equal(region, first.region) {
			return nil
		}
	}
	return first
}

// recordRuns executes the loaded context from its current state to HALT,
// one instruction at a time, and returns the pass's runs and length. It
// fails on a fault, on a data access outside [lo, lo+size), or past
// maxPassInsts instructions.
//
//cryptojack:coldpath
func (c *Core) recordRuns(lo, size uint64) ([]passRun, uint64, bool) {
	ctx := c.ctx
	code := ctx.Prog.Code
	var runs []passRun
	for n := uint64(1); n <= maxPassInsts; n++ {
		pc := ctx.PC
		if uint(pc) >= uint(len(code)) {
			return nil, 0, false
		}
		in := code[pc]
		if addr, width, ok := dataAccess(in, &ctx.Regs); ok && (addr < lo || addr-lo > size-width) {
			return nil, 0, false
		}
		if !c.exec(in) {
			return nil, 0, false
		}
		if k := len(runs) - 1; k >= 0 && runs[k].pc+runs[k].n == uint32(pc) {
			runs[k].n++
		} else {
			runs = append(runs, passRun{pc: uint32(pc), n: 1})
		}
		if in.Op == isa.HALT {
			ctx.Halted = true
			return runs, n, true
		}
	}
	return nil, 0, false
}

// dataAccess returns the address and width of the data access in is about
// to make with registers r, or ok = false if it makes none.
//
//cryptojack:coldpath
func dataAccess(in isa.Inst, r *[isa.NumRegs]uint64) (addr, width uint64, ok bool) {
	switch in.Op {
	case isa.LD, isa.ST:
		return r[in.Rs1] + uint64(in.Imm), 8, true
	case isa.LD32, isa.ST32:
		return r[in.Rs1] + uint64(in.Imm), 4, true
	case isa.LD16, isa.ST16:
		return r[in.Rs1] + uint64(in.Imm), 2, true
	case isa.LD8, isa.ST8:
		return r[in.Rs1] + uint64(in.Imm), 1, true
	case isa.PUSH, isa.CALL:
		return r[isa.SP] - 8, 8, true
	case isa.POP, isa.RET:
		return r[isa.SP], 8, true
	default:
		return 0, 0, false
	}
}

// matches reports whether m's copy of the trace's region holds exactly the
// bytes a pass leaves there.
//
//cryptojack:coldpath
func (t *PassTrace) matches(m *mem.Memory) bool {
	img, addr := t.region, t.base
	for len(img) > 0 {
		off := int(addr & (mem.PageSize - 1))
		span := min(mem.PageSize-off, len(img))
		if p := m.PagePtr(addr, false); p != nil {
			if !bytes.Equal(p[off:off+span], img[:span]) {
				return false
			}
		} else if slices.ContainsFunc(img[:span], func(b byte) bool { return b != 0 }) {
			return false
		}
		img, addr = img[span:], addr+uint64(span)
	}
	return true
}

// advance executes up to n instructions of ctx against m on a detached
// core, stopping early at HALT or a fault, and returns the number retired.
//
//cryptojack:coldpath
func advance(ctx *ArchContext, m *mem.Memory, n uint64) uint64 {
	if n == 0 || ctx.Halted {
		return 0
	}
	c := detachedCore(m)
	c.ctx = ctx
	return c.runFastStep(n)
}

// PassReplay is one looping task's replay state. The zero value is
// inactive; Start activates it at a HALT of the task's context.
type PassReplay struct {
	trace *PassTrace
	// asked records that the store was asked for the trace (once per task).
	asked bool
	// The virtual position: run index and offset into it, and instructions
	// into the current pass. A HALT restarts at once, as the task's restart
	// loop does, so pos < trace.insts between calls.
	run, off int
	pos      uint64
	// real is how many instructions of its pass the context and region
	// reflect; lapped is set once the virtual pass is a later one.
	real   uint64
	lapped bool
	active bool
}

// Active reports whether the task is replaying, so that its context may
// lag its virtual position.
func (r *PassReplay) Active() bool { return r.active }

// CanReplay reports whether Replay may charge this core: exactly the cores
// whose Run uses the block engine (fast mode, no observer, block cache on).
func (c *Core) CanReplay() bool {
	return c.cfg.Mode == ModeFast && c.observer == nil && !c.cfg.NoBlockCache
}

// Start activates replay for a looping task whose context (prog loaded at
// base in c's memory) has just halted without a fault. The first call asks
// c's block store for the program's trace, and keeps it only if the task's
// region holds the bytes a recorded pass leaves; it reports false, and the
// task executes as before, when the core cannot replay or there is no
// usable trace.
//
//cryptojack:coldpath
func (r *PassReplay) Start(c *Core, prog *isa.Program, base uint64) bool {
	if !c.CanReplay() {
		return false
	}
	if !r.asked {
		r.asked = true
		if t := c.shared.PassTrace(prog, base); t != nil && t.matches(c.mem) {
			r.trace = t
		}
	}
	if r.trace == nil {
		return false
	}
	// The context sits at the HALT, which the restart loop answers with
	// an immediate restart: the virtual position is the next pass's entry.
	*r = PassReplay{trace: r.trace, asked: true, real: r.trace.insts, lapped: true, active: true}
	return true
}

// Sync brings the context and its region in m forward to the virtual
// position, by executing the instructions replay skipped on a detached
// core. Replay stays active. A no-op when inactive.
//
//cryptojack:coldpath
func (r *PassReplay) Sync(ctx *ArchContext, m *mem.Memory) {
	if !r.active {
		return
	}
	t := r.trace
	if r.lapped {
		// Finish the context's own pass; every pass leaves the region
		// alike, so the passes in between change nothing.
		advance(ctx, m, t.insts-r.real)
		ctx.Reset(t.prog, m, t.base)
		r.real, r.lapped = 0, false
	}
	advance(ctx, m, r.pos-r.real)
	r.real = r.pos
}

// Stop syncs the context and deactivates replay; the task executes from
// there until its next HALT.
//
//cryptojack:coldpath
func (r *PassReplay) Stop(ctx *ArchContext, m *mem.Memory) {
	r.Sync(ctx, m)
	r.active = false
}

// Replay charges budget instructions of the looping task to c, restarting
// the pass at every HALT as the task's restart loop does, without
// executing them. Each pass segment is one Run call's worth of charges
// (replayRun). The caller must hold an active r and a core that CanReplay.
//
//cryptojack:hotpath
func (c *Core) Replay(r *PassReplay, budget uint64) {
	for budget > 0 {
		budget -= c.replayRun(r, budget)
		if r.pos == r.trace.insts {
			r.run, r.off, r.pos, r.lapped = 0, 0, 0, true
		}
	}
}

// replayRun charges what runFastBlocks(maxInsts) would from r's position,
// stopping at maxInsts or the pass's HALT: the bank's RSX, retired and
// cycle counts, the characterization histogram, and the block lookups,
// misses and lengths in BBStats. Blocks come from the live table exactly as
// there, decoded on a miss, and the tag table is sampled once per call.
// Nothing architectural is touched: no register, flag, memory or TLB.
//
// The attach, lookup and charge steps repeat runFastBlocks' inline. As
// shared helpers they are too large for the compiler to inline, and the
// calls cost the block engine 2–4% and replay about 60% per slice
// (BenchmarkBlockCacheMIPS, BenchmarkCatalogSlice); FuzzPassReplay holds
// the two copies equal.
//
//cryptojack:hotpath
func (c *Core) replayRun(r *PassReplay, maxInsts uint64) uint64 {
	prog := r.trace.prog
	code := prog.Code
	tags := c.tagTable()
	characterizing := c.bank.Characterizing()

	gen := tags.Gen()
	pt, ok := c.bb.progs[prog]
	if !ok || pt.gen != gen {
		pt.blocks = c.bb.attach(c.shared, prog, gen)
	}
	blocks := pt.blocks

	runs := r.trace.runs
	ri, off := r.run, r.off
	var n, rsx uint64
	for n < maxInsts && ri < len(runs) {
		run := runs[ri]
		pc := int(run.pc) + off
		blk := blocks[pc].Load()
		if blk == nil {
			c.bb.stats.Misses++
			blk = c.shared.decode(blocks, code, pc, tags)
		} else {
			c.bb.stats.Hits++
		}
		retired := uint64(len(blk.ops))
		if left := maxInsts - n; retired > left {
			// Partial retire at the slice boundary.
			retired = left
			rsx += uint64(bits.OnesCount64(blk.tagMask & (uint64(1)<<retired - 1)))
			if characterizing {
				for _, in := range blk.ops[:retired] {
					c.bank.CountOp(in.Op)
				}
			}
		} else {
			rsx += blk.rsx
			if characterizing {
				for _, h := range blk.hist {
					c.bank.AddOpCount(h.op, h.n)
				}
			}
		}
		c.bb.stats.LenCounts[bits.Len64(retired-1)]++
		c.bb.stats.LenSum += retired
		n += retired
		if off += int(retired); off == int(run.n) {
			ri, off = ri+1, 0
		}
	}
	r.run, r.off = ri, off
	r.pos += n
	c.bb.stats.Replayed += n
	c.bank.AddRSX(rsx)
	c.bank.AddRetired(n)
	c.bank.AddCycles(n) // nominal IPC=1 in fast mode
	return n
}
