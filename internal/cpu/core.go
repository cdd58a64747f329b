package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"darkarts/internal/counters"
	"darkarts/internal/isa"
	"darkarts/internal/mem"
	"darkarts/internal/microcode"
)

// Execution faults.
var (
	ErrDivideByZero = errors.New("divide by zero")
	ErrInvalidOp    = errors.New("invalid opcode")
	ErrPCOutOfRange = errors.New("pc out of range")
	ErrNoContext    = errors.New("no context loaded")
)

// RetireObserver receives each retired instruction. Only consulted when
// non-nil; attaching one slows the fast engine, so tracing tools attach it
// for bounded windows (mirrors running a workload under Intel SDE).
type RetireObserver interface {
	Retired(core int, in isa.Inst)
}

// tlbBits sizes the per-core page-translation cache (direct mapped on the
// low page-index bits). 64 entries cover 256KB of working set — more than
// any task region's hot pages.
const tlbBits = 6

const tlbMask = 1<<tlbBits - 1

// memTLB caches stable Memory page pointers so the hot load/store path
// skips the shared page-table lock and map lookup. Entries stay valid for
// the lifetime of the Memory (pages are never replaced until Reset).
// hits/misses are plain per-core counters (one goroutine per core) read
// by the kernel's observability layer at quantum merge.
//
//cryptojack:derived
type memTLB struct {
	tag    [1 << tlbBits]uint64 // page index + 1; 0 = empty
	pg     [1 << tlbBits]*[mem.PageSize]byte
	hits   uint64
	misses uint64
}

// Core is one hardware context of the simulated processor.
//
// Classification (statecheck): architectural and timing state is the
// snapshot surface; the translation caches are rebuildable (derived); the
// retirement observer is a host-side hook.
//
//cryptojack:state
type Core struct {
	id   int
	cfg  Config
	mem  *mem.Memory
	hier *mem.Hierarchy
	bank *counters.Bank

	// tags points at the CPU-wide decoder tag table (microcode-updatable,
	// atomically swapped by firmware updates while cores execute).
	tags *atomic.Pointer[microcode.TagTable]

	ctx *ArchContext

	observer RetireObserver // cryptojack:hostonly -- host-side retirement hook

	tlb memTLB // cryptojack:derived

	// bb is the per-core basic-block translation cache (fast mode only;
	// see bbcache.go). shared, when non-nil, is the fleet-scope decoded-
	// block cache consulted on local misses (sharedbb.go).
	bb     blockCache    // cryptojack:derived
	shared *SharedBlocks // cryptojack:derived -- fleet-scope decode cache, rebuildable

	// Detailed-mode timing state (see timing.go).
	tm timing
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Counters returns the core's performance counter bank.
func (c *Core) Counters() *counters.Bank { return c.bank }

// PipelineStats returns the detailed-engine observability counters (zero
// in fast mode).
func (c *Core) PipelineStats() PipelineStats { return c.tm.stats }

// TraceStats is the counter set of a superblock trace tier this package
// no longer has. It exists only so the frozen perfbench module, which
// still reads it, keeps compiling.
type TraceStats struct{ Hits, Misses, SideExits, LenSum uint64 }

// TraceCacheStats always returns the zero TraceStats. It exists only for
// perfbench (see TraceStats).
func (c *Core) TraceCacheStats() TraceStats { return TraceStats{} }

// TLBStats returns the cumulative page-translation cache hit/miss counts.
// The counters are written by the core's own execution goroutine; callers
// must observe the scheduler's quantum barrier (as the kernel's merge
// phase does) before reading them for another core.
func (c *Core) TLBStats() (hits, misses uint64) { return c.tlb.hits, c.tlb.misses }

// SetObserver installs (or clears, with nil) a retirement observer.
func (c *Core) SetObserver(o RetireObserver) { c.observer = o }

// Observer returns the installed retirement observer (nil if none). The
// simulated kernel falls back to serial quantum execution while one is
// attached, since observers need not be safe for concurrent cores.
func (c *Core) Observer() RetireObserver { return c.observer }

// LoadContext makes ctx the running context. Loading a context models a
// context switch: in detailed mode the pipeline is drained first.
func (c *Core) LoadContext(ctx *ArchContext) {
	if c.cfg.Mode == ModeDetailed {
		c.tm.drain(c)
	}
	c.ctx = ctx
}

// Context returns the currently loaded context (nil if none).
func (c *Core) Context() *ArchContext { return c.ctx }

// Halted reports whether the loaded context has halted (or none is loaded).
func (c *Core) Halted() bool { return c.ctx == nil || c.ctx.Halted }

// tagTable returns the live decoder tag table.
//
//cryptojack:hotpath
func (c *Core) tagTable() *microcode.TagTable {
	if c.tags == nil {
		return nil
	}
	return c.tags.Load()
}

// pagePtr translates addr to its backing page through the core-local TLB,
// falling back to the shared (locked) page table on a miss. Absent pages
// are not cached so that a pure load of untouched memory stays free.
//
//cryptojack:hotpath
func (c *Core) pagePtr(addr uint64, create bool) *[mem.PageSize]byte {
	idx := addr >> mem.PageBits
	e := idx & tlbMask
	if c.tlb.tag[e] == idx+1 {
		c.tlb.hits++
		return c.tlb.pg[e]
	}
	c.tlb.misses++
	p := c.mem.PagePtr(addr, create)
	if p != nil {
		c.tlb.tag[e] = idx + 1
		c.tlb.pg[e] = p
	}
	return p
}

// load performs a data read on the hot execution path.
//
//cryptojack:hotpath
func (c *Core) load(addr uint64, size int) uint64 {
	off := addr & (mem.PageSize - 1)
	if off+uint64(size) <= mem.PageSize {
		p := c.pagePtr(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		default:
			return uint64(p[off])
		}
	}
	return c.mem.Read(addr, size) // straddles a page boundary
}

// store performs a data write on the hot execution path.
//
//cryptojack:hotpath
func (c *Core) store(addr uint64, v uint64, size int) {
	off := addr & (mem.PageSize - 1)
	if off+uint64(size) <= mem.PageSize {
		p := c.pagePtr(addr, true)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		default:
			p[off] = byte(v)
		}
		return
	}
	c.mem.Write(addr, v, size)
}

// TagTable exposes the live decoder tag table. Rate-model workloads use it
// to decide which instruction classes the hardware would have counted.
func (c *Core) TagTable() *microcode.TagTable { return c.tagTable() }

// Run executes up to maxInsts instructions of the loaded context and returns
// the number actually retired. It stops early on HALT or a fault. Calling
// Run with no context is a fault-free no-op returning 0.
func (c *Core) Run(maxInsts uint64) uint64 {
	if c.ctx == nil || c.ctx.Halted {
		return 0
	}
	if c.cfg.Mode == ModeDetailed {
		return c.runDetailed(maxInsts)
	}
	return c.runFast(maxInsts)
}

// runFast is the functional engine: exact architectural and counter
// semantics, no timing. One simulated cycle per instruction is accounted so
// rate-based consumers still observe monotonic time. It normally executes
// through the basic-block translation cache (bbcache.go); cores with a
// retirement observer attached need exact per-instruction retirement order
// and fall back to the per-instruction step loop, as does a machine
// configured with NoBlockCache.
//
//cryptojack:hotpath
func (c *Core) runFast(maxInsts uint64) uint64 {
	if c.observer == nil && !c.cfg.NoBlockCache {
		return c.runFastBlocks(maxInsts)
	}
	return c.runFastStep(maxInsts)
}

// runFastStep is the plain per-instruction fast engine. The tag table,
// instruction slice, and observability switches are hoisted out of the
// loop, and counter updates are batched to one add per Run call. It is the
// reference semantics the block-cached engine is differentially tested
// against.
//
//cryptojack:hotpath
func (c *Core) runFastStep(maxInsts uint64) uint64 {
	ctx := c.ctx
	code := ctx.Prog.Code
	tags := c.tagTable()
	characterizing := c.bank.Characterizing()
	observer := c.observer
	var n, rsx uint64
	for n < maxInsts {
		pc := ctx.PC
		if uint(pc) >= uint(len(code)) {
			c.fault(ErrPCOutOfRange)
			break
		}
		in := code[pc]
		if !c.exec(in) {
			break
		}
		n++
		// Retirement effects: every instruction retires immediately in the
		// functional model. The decoder tag check + R&C commit check
		// collapse to a single table lookup here.
		if tags.Tagged(in.Op) {
			rsx++
		}
		if characterizing {
			c.bank.CountOp(in.Op)
		}
		if observer != nil {
			//lint:ignore hotpath observers are attached only for bounded tracing windows and accept the slowdown
			observer.Retired(c.id, in)
		}
		if in.Op == isa.HALT {
			ctx.Halted = true
			break
		}
	}
	c.bank.AddRSX(rsx)
	c.bank.AddRetired(n)
	c.bank.AddCycles(n) // nominal IPC=1 in fast mode
	return n
}

// fault halts the context with err recorded (the acknowledged slow exit
// from the execution loop).
//
//cryptojack:coldpath
func (c *Core) fault(err error) {
	c.ctx.Halted = true
	if c.ctx.Fault == nil {
		c.ctx.Fault = fmt.Errorf("core %d pc %d: %w", c.id, c.ctx.PC, err)
	}
}

// exec executes one instruction functionally: registers, flags, memory and
// PC are updated. It returns false if execution cannot continue (fault).
// HALT returns true; the caller observes the opcode.
//
//cryptojack:hotpath
func (c *Core) exec(in isa.Inst) bool {
	ctx := c.ctx
	r := &ctx.Regs
	nextPC := ctx.PC + 1

	switch in.Op {
	case isa.NOP, isa.HALT:
	case isa.MOV:
		r[in.Rd] = r[in.Rs1]
	case isa.MOVI:
		r[in.Rd] = uint64(in.Imm)
	case isa.LEA:
		r[in.Rd] = r[in.Rs1] + uint64(in.Imm)

	case isa.LD:
		r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 8)
	case isa.LD32:
		r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 4)
	case isa.LD16:
		r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 2)
	case isa.LD8:
		r[in.Rd] = c.load(r[in.Rs1]+uint64(in.Imm), 1)
	case isa.ST:
		c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 8)
	case isa.ST32:
		c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 4)
	case isa.ST16:
		c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 2)
	case isa.ST8:
		c.store(r[in.Rs1]+uint64(in.Imm), r[in.Rs2], 1)
	case isa.PUSH:
		r[isa.SP] -= 8
		c.store(r[isa.SP], r[in.Rs1], 8)
	case isa.POP:
		r[in.Rd] = c.load(r[isa.SP], 8)
		r[isa.SP] += 8

	case isa.ADD:
		a, b := r[in.Rs1], r[in.Rs2]
		res := a + b
		ctx.Flags = addFlags(a, b, res)
		r[in.Rd] = res
	case isa.ADDI:
		a, b := r[in.Rs1], uint64(in.Imm)
		res := a + b
		ctx.Flags = addFlags(a, b, res)
		r[in.Rd] = res
	case isa.SUB:
		a, b := r[in.Rs1], r[in.Rs2]
		res := a - b
		ctx.Flags = subFlags(a, b, res)
		r[in.Rd] = res
	case isa.SUBI:
		a, b := r[in.Rs1], uint64(in.Imm)
		res := a - b
		ctx.Flags = subFlags(a, b, res)
		r[in.Rd] = res
	case isa.MUL:
		r[in.Rd] = r[in.Rs1] * r[in.Rs2]
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.IMUL:
		r[in.Rd] = uint64(int64(r[in.Rs1]) * int64(r[in.Rs2]))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.DIV:
		if r[in.Rs2] == 0 {
			c.fault(ErrDivideByZero)
			return false
		}
		r[in.Rd] = r[in.Rs1] / r[in.Rs2]
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.MOD:
		if r[in.Rs2] == 0 {
			c.fault(ErrDivideByZero)
			return false
		}
		r[in.Rd] = r[in.Rs1] % r[in.Rs2]
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.NEG:
		r[in.Rd] = -r[in.Rs1]
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.INC:
		r[in.Rd]++
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.DEC:
		r[in.Rd]--
		ctx.Flags = logicFlags(r[in.Rd])

	case isa.AND:
		r[in.Rd] = r[in.Rs1] & r[in.Rs2]
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.ANDI:
		r[in.Rd] = r[in.Rs1] & uint64(in.Imm)
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.OR:
		r[in.Rd] = r[in.Rs1] | r[in.Rs2]
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.ORI:
		r[in.Rd] = r[in.Rs1] | uint64(in.Imm)
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.XOR:
		r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.XORI:
		r[in.Rd] = r[in.Rs1] ^ uint64(in.Imm)
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.NOT:
		r[in.Rd] = ^r[in.Rs1]
		ctx.Flags = logicFlags(r[in.Rd])

	case isa.SHL:
		r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.SHLI:
		r[in.Rd] = r[in.Rs1] << (uint64(in.Imm) & 63)
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.SHR:
		r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.SHRI:
		r[in.Rd] = r[in.Rs1] >> (uint64(in.Imm) & 63)
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.SAR:
		r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.SARI:
		r[in.Rd] = uint64(int64(r[in.Rs1]) >> (uint64(in.Imm) & 63))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.ROL:
		r[in.Rd] = bits.RotateLeft64(r[in.Rs1], int(r[in.Rs2]&63))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.ROLI:
		r[in.Rd] = bits.RotateLeft64(r[in.Rs1], int(uint64(in.Imm)&63))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.ROR:
		r[in.Rd] = bits.RotateLeft64(r[in.Rs1], -int(r[in.Rs2]&63))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.RORI:
		r[in.Rd] = bits.RotateLeft64(r[in.Rs1], -int(uint64(in.Imm)&63))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.ROL32I:
		r[in.Rd] = uint64(bits.RotateLeft32(uint32(r[in.Rs1]), int(uint64(in.Imm)&31)))
		ctx.Flags = logicFlags(r[in.Rd])
	case isa.ROR32I:
		r[in.Rd] = uint64(bits.RotateLeft32(uint32(r[in.Rs1]), -int(uint64(in.Imm)&31)))
		ctx.Flags = logicFlags(r[in.Rd])

	case isa.CMP:
		a, b := r[in.Rs1], r[in.Rs2]
		ctx.Flags = subFlags(a, b, a-b)
	case isa.CMPI:
		a, b := r[in.Rs1], uint64(in.Imm)
		ctx.Flags = subFlags(a, b, a-b)
	case isa.TEST:
		ctx.Flags = logicFlags(r[in.Rs1] & r[in.Rs2])

	case isa.JMP:
		nextPC = int(in.Imm)
	case isa.CALL:
		r[isa.SP] -= 8
		c.store(r[isa.SP], uint64(nextPC), 8)
		nextPC = int(in.Imm)
	case isa.RET:
		nextPC = int(c.load(r[isa.SP], 8))
		r[isa.SP] += 8
	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE:
		if condTaken(in.Op, ctx.Flags) {
			nextPC = int(in.Imm)
		}

	default:
		c.fault(ErrInvalidOp)
		return false
	}

	ctx.PC = nextPC
	return true
}

//cryptojack:hotpath
func addFlags(a, b, res uint64) Flags {
	return Flags{
		Z: res == 0,
		S: int64(res) < 0,
		C: res < a,
		O: (^(a^b)&(a^res))>>63 != 0,
	}
}

//cryptojack:hotpath
func subFlags(a, b, res uint64) Flags {
	return Flags{
		Z: res == 0,
		S: int64(res) < 0,
		C: a < b,
		O: ((a^b)&(a^res))>>63 != 0,
	}
}

//cryptojack:hotpath
func logicFlags(res uint64) Flags {
	return Flags{Z: res == 0, S: int64(res) < 0}
}

//cryptojack:hotpath
func condTaken(op isa.Op, f Flags) bool {
	switch op {
	case isa.JE:
		return f.Z
	case isa.JNE:
		return !f.Z
	case isa.JL:
		return f.S != f.O
	case isa.JLE:
		return f.Z || f.S != f.O
	case isa.JG:
		return !f.Z && f.S == f.O
	case isa.JGE:
		return f.S == f.O
	case isa.JB:
		return f.C
	case isa.JBE:
		return f.C || f.Z
	case isa.JA:
		return !f.C && !f.Z
	case isa.JAE:
		return !f.C
	default:
		// Unconditional branches and non-branches never consult flags.
		return false
	}
}
