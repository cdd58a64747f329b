package cpu

import (
	"encoding/binary"
	"math/bits"

	"darkarts/internal/isa"
	"darkarts/internal/mem"
	"darkarts/internal/microcode"
)

// Basic-block translation cache.
//
// The fast engine's per-instruction loop pays a PC bounds check, a decoder
// tag-table lookup, a HALT compare, and a context PC/flags writeback for
// every retired instruction. None of that work depends on run-time data
// within a straight-line region, so the block cache decodes each program
// once into basic blocks — maximal straight-line instruction runs ending at
// a control transfer, HALT, or faultable op — and pre-computes, per block,
// the RSX count and per-opcode histogram increments under the current tag
// table. Executing a cached block then hoists PC and flag bookkeeping out of
// the instruction loop and retires the whole block with one batched counter
// update.
//
// Pre-counts are only valid for the tag table they were computed under, so
// they are keyed by the table's generation number (microcode.TagTable.Gen):
// a firmware update installs a table with a new generation and the next Run
// call drops every cached block. Observer-attached cores and the detailed
// engine bypass the cache entirely — they need exact per-instruction
// retirement order, which block-batched accounting does not provide.

// maxBlockLen caps a cached block's instruction count. The per-block tag
// set is a single uint64 bitmask (bit i = instruction i is tagged), which
// both bounds the decode cost of a partial retire and keeps blocks small
// enough that a mid-quantum slice boundary rarely splits one.
const maxBlockLen = 64

// maxCachedProgs bounds the per-core program map. The whole cache is
// dropped when a core has seen more distinct programs than this (a
// capacity invalidation); steady-state schedulers run far fewer programs
// per core.
const maxCachedProgs = 32

// BBLenBounds are the inclusive upper bounds of the insts-per-block
// histogram buckets reported in BBStats.LenCounts (the last bucket is
// unbounded, covering 33..maxBlockLen). Exposed so the kernel's
// observability layer registers its histogram with matching boundaries.
//
//cryptojack:immutable
var BBLenBounds = []uint64{1, 2, 4, 8, 16, 32}

// bbLenBuckets is len(BBLenBounds)+1: six bounded buckets plus overflow
// (33..maxBlockLen).
const bbLenBuckets = 7

// BBStats is a snapshot of one core's block-cache counters. The counters
// are written by the core's own execution goroutine; callers must observe
// the scheduler's quantum barrier (as the kernel's merge phase does) before
// reading them for another core.
//
//cryptojack:derived
type BBStats struct {
	// Hits and Misses count block lookups: a miss decodes and caches a new
	// block, a hit reuses one.
	Hits   uint64
	Misses uint64
	// Invalidations counts whole-cache drops: tag-table generation changes
	// plus capacity evictions (more than maxCachedProgs distinct programs).
	Invalidations uint64
	// LenCounts histograms the retired-instructions-per-block-execution
	// distribution over the BBLenBounds buckets; LenSum is the total
	// instructions retired through the cache (the histogram's sum).
	LenCounts [bbLenBuckets]uint64
	LenSum    uint64
}

// opCount is one per-opcode histogram increment baked into a block.
//
//cryptojack:derived
type opCount struct {
	op isa.Op
	n  uint64
}

// bbBlock is one decoded basic block with its pre-computed retire effects.
//
//cryptojack:derived
type bbBlock struct {
	// ops aliases Prog.Code[pc : pc+len] (programs are immutable once
	// running, so no copy is needed).
	ops []isa.Inst
	// pc is the index of ops[0] in Prog.Code.
	pc int
	// rsx is the number of tagged instructions in the block and tagMask
	// marks which (bit i ⇔ ops[i]); partial retires recover the prefix
	// count with one popcount instead of re-walking the tag table.
	rsx     uint64
	tagMask uint64
	// hist is the per-opcode retire histogram for a full block, applied
	// only when characterization counters are enabled.
	hist []opCount
}

// blockCache is a core's private translation cache. All state is owned by
// the core's execution goroutine; the kernel reads stats at quantum merge.
//
//cryptojack:derived
type blockCache struct {
	progs map[*isa.Program]*progBlocks
	stats BBStats
}

// progBlocks holds one program's decoded blocks, densely indexed by entry
// pc (nil = not yet decoded). Entering the middle of a cached block (a
// branch target, or a slice boundary that split a block) simply decodes a
// new block starting there; both stay cached.
//
// gen is the tag-table generation this program's pre-counts were computed
// under. Generation is tracked per program so a firmware swap only touches
// programs as they next run — a stale program is re-tagged in place
// (pre-counts recomputed; decode is tag-independent) rather than the
// whole cache being dropped.
//
//cryptojack:derived
type progBlocks struct {
	blocks []*bbBlock
	gen    uint64
}

// retag recomputes every cached block's RSX count and tag mask of one
// program under a new tag table.
//
//cryptojack:coldpath
func (pb *progBlocks) retag(tags *microcode.TagTable) {
	for _, blk := range pb.blocks {
		if blk == nil {
			continue
		}
		blk.rsx = 0
		blk.tagMask = 0
		for i, in := range blk.ops {
			if tags.Tagged(in.Op) {
				blk.rsx++
				blk.tagMask |= 1 << uint(i)
			}
		}
	}
	pb.gen = tags.Gen()
}

// BlockCacheStats returns a snapshot of the core's block-cache counters
// (all zero when the cache is disabled or bypassed).
func (c *Core) BlockCacheStats() BBStats { return c.bb.stats }

// invalidate drops every cached block (capacity eviction). The
// drop is counted only if there was something to drop, so cold starts do
// not report an invalidation.
//
//cryptojack:coldpath
func (bc *blockCache) invalidate() {
	if len(bc.progs) > 0 {
		bc.stats.Invalidations++
	}
	bc.progs = nil
}

// lookup returns the cached block table for prog, creating it on first
// sight (keyed to the current tag-table generation) and applying the
// capacity bound.
//
//cryptojack:coldpath
func (bc *blockCache) lookup(prog *isa.Program, gen uint64) *progBlocks {
	if len(bc.progs) >= maxCachedProgs {
		bc.invalidate()
	}
	if bc.progs == nil {
		bc.progs = make(map[*isa.Program]*progBlocks, 4)
	}
	pb := &progBlocks{blocks: make([]*bbBlock, len(prog.Code)), gen: gen}
	bc.progs[prog] = pb
	return pb
}

// buildBlock decodes the basic block starting at pc: a maximal straight-line
// run that includes its terminator (branch/CALL/RET, HALT, DIV/MOD, or an
// invalid opcode) and never exceeds maxBlockLen instructions or the end of
// the code image. Faultable ops terminate blocks so that a block has at most
// one data-dependent exit, at its last instruction.
//
//cryptojack:coldpath
func buildBlock(code []isa.Inst, pc int, tags *microcode.TagTable) *bbBlock {
	end := pc
	for end < len(code) && end-pc < maxBlockLen {
		op := code[end].Op
		end++
		if op.IsBranch() || op == isa.HALT || op == isa.DIV || op == isa.MOD || !op.Valid() {
			break
		}
	}
	blk := &bbBlock{ops: code[pc:end:end], pc: pc}
	var perOp [isa.NumOps]uint64
	for i, in := range blk.ops {
		if tags.Tagged(in.Op) {
			blk.rsx++
			blk.tagMask |= 1 << uint(i)
		}
		perOp[in.Op]++
	}
	for op, n := range perOp {
		if n > 0 {
			blk.hist = append(blk.hist, opCount{op: isa.Op(op), n: n})
		}
	}
	return blk
}

// runFastBlocks is the block-cached fast engine. Architectural results are
// bit-identical to the plain per-instruction loop (runFastStep); only the
// bookkeeping schedule differs. The tag table is sampled once per Run call,
// exactly as the plain loop hoists it, so a concurrent firmware swap
// becomes visible at the same Run-call boundary in both engines.
//
//cryptojack:hotpath
func (c *Core) runFastBlocks(maxInsts uint64) uint64 {
	ctx := c.ctx
	code := ctx.Prog.Code
	tags := c.tagTable()
	characterizing := c.bank.Characterizing()

	gen := tags.Gen()
	pb := c.bb.progs[ctx.Prog]
	if pb == nil {
		pb = c.bb.lookup(ctx.Prog, gen)
	} else if pb.gen != gen {
		// Firmware swap: re-tag this program's pre-counts in place. Other
		// cached programs are re-tagged when they next run.
		c.bb.stats.Invalidations++
		pb.retag(tags)
	}
	blocks := pb.blocks

	var n, rsx uint64
	for n < maxInsts {
		pc := ctx.PC
		if uint(pc) >= uint(len(code)) {
			c.fault(ErrPCOutOfRange)
			break
		}
		blk := blocks[pc]
		if blk == nil {
			c.bb.stats.Misses++
			if blk = c.shared.get(ctx.Prog, gen, pc); blk == nil {
				blk = buildBlock(code, pc, tags)
				c.shared.put(ctx.Prog, gen, pc, blk)
			}
			blocks[pc] = blk
		} else {
			c.bb.stats.Hits++
		}
		retired, ok := c.execBlock(blk, maxInsts-n)
		n += retired
		if ok && retired == uint64(len(blk.ops)) {
			// Full block: batched pre-counted retire.
			rsx += blk.rsx
			if characterizing {
				for _, h := range blk.hist {
					c.bank.AddOpCount(h.op, h.n)
				}
			}
		} else {
			// Partial retire (slice boundary or fault): the prefix RSX
			// count is one popcount over the pre-computed tag mask.
			rsx += uint64(bits.OnesCount64(blk.tagMask & (uint64(1)<<retired - 1)))
			if characterizing {
				for _, in := range blk.ops[:retired] {
					c.bank.CountOp(in.Op)
				}
			}
		}
		if retired > 0 {
			c.bb.stats.LenCounts[bits.Len64(retired-1)]++
			c.bb.stats.LenSum += retired
		}
		if !ok || ctx.Halted {
			break
		}
	}
	c.bank.AddRSX(rsx)
	c.bank.AddRetired(n)
	c.bank.AddCycles(n) // nominal IPC=1 in fast mode
	return n
}

// execBlock executes up to limit instructions of blk and returns the number
// retired plus ok=false on a fault (the faulting instruction is not
// retired, matching the plain engine). Blocks end at control transfers, so
// every instruction before the last is straight-line and its PC successor
// is implied by its index: the context PC, flags and TLB hit count are
// written back only at the block's exit (exitBlock).
//
// Flags live packed in f (see flagZ). LD, LD32, ST and ST32 translate
// through the core TLB inline: a tag hit on an access that stays inside
// its page reads or writes the page directly and counts the hit in a local;
// a miss or a page-straddling access takes the Core.load/Core.store path,
// which does its own TLB accounting.
//
//cryptojack:hotpath
func (c *Core) execBlock(blk *bbBlock, limit uint64) (uint64, bool) {
	ctx := c.ctx
	r := &ctx.Regs
	tlb := &c.tlb
	f := packFlags(ctx.Flags)
	var hits uint64
	ops := blk.ops
	if limit < uint64(len(ops)) {
		ops = ops[:limit]
	}
	for i := range ops {
		in := &ops[i]
		switch in.Op {
		case isa.NOP:
		case isa.MOV:
			r[in.Rd&regMask] = r[in.Rs1&regMask]
		case isa.MOVI:
			r[in.Rd&regMask] = uint64(in.Imm)
		case isa.LEA:
			r[in.Rd&regMask] = r[in.Rs1&regMask] + uint64(in.Imm)

		case isa.LD:
			addr := r[in.Rs1&regMask] + uint64(in.Imm)
			idx := addr >> mem.PageBits
			e := idx & tlbMask
			off := addr & (mem.PageSize - 1)
			if tlb.tag[e] == idx+1 && off <= mem.PageSize-8 {
				hits++
				r[in.Rd&regMask] = binary.LittleEndian.Uint64(tlb.pg[e][off:])
			} else {
				r[in.Rd&regMask] = c.load(addr, 8)
			}
		case isa.LD32:
			addr := r[in.Rs1&regMask] + uint64(in.Imm)
			idx := addr >> mem.PageBits
			e := idx & tlbMask
			off := addr & (mem.PageSize - 1)
			if tlb.tag[e] == idx+1 && off <= mem.PageSize-4 {
				hits++
				r[in.Rd&regMask] = uint64(binary.LittleEndian.Uint32(tlb.pg[e][off:]))
			} else {
				r[in.Rd&regMask] = c.load(addr, 4)
			}
		case isa.LD16:
			r[in.Rd&regMask] = c.load(r[in.Rs1&regMask]+uint64(in.Imm), 2)
		case isa.LD8:
			r[in.Rd&regMask] = c.load(r[in.Rs1&regMask]+uint64(in.Imm), 1)
		case isa.ST:
			addr := r[in.Rs1&regMask] + uint64(in.Imm)
			idx := addr >> mem.PageBits
			e := idx & tlbMask
			off := addr & (mem.PageSize - 1)
			if tlb.tag[e] == idx+1 && off <= mem.PageSize-8 {
				hits++
				binary.LittleEndian.PutUint64(tlb.pg[e][off:], r[in.Rs2&regMask])
			} else {
				c.store(addr, r[in.Rs2&regMask], 8)
			}
		case isa.ST32:
			addr := r[in.Rs1&regMask] + uint64(in.Imm)
			idx := addr >> mem.PageBits
			e := idx & tlbMask
			off := addr & (mem.PageSize - 1)
			if tlb.tag[e] == idx+1 && off <= mem.PageSize-4 {
				hits++
				binary.LittleEndian.PutUint32(tlb.pg[e][off:], uint32(r[in.Rs2&regMask]))
			} else {
				c.store(addr, r[in.Rs2&regMask], 4)
			}
		case isa.ST16:
			c.store(r[in.Rs1&regMask]+uint64(in.Imm), r[in.Rs2&regMask], 2)
		case isa.ST8:
			c.store(r[in.Rs1&regMask]+uint64(in.Imm), r[in.Rs2&regMask], 1)
		case isa.PUSH:
			r[isa.SP] -= 8
			c.store(r[isa.SP], r[in.Rs1&regMask], 8)
		case isa.POP:
			r[in.Rd&regMask] = c.load(r[isa.SP], 8)
			r[isa.SP] += 8

		case isa.ADD:
			a, b := r[in.Rs1&regMask], r[in.Rs2&regMask]
			res := a + b
			f = addPacked(a, b, res)
			r[in.Rd&regMask] = res
		case isa.ADDI:
			a, b := r[in.Rs1&regMask], uint64(in.Imm)
			res := a + b
			f = addPacked(a, b, res)
			r[in.Rd&regMask] = res
		case isa.SUB:
			a, b := r[in.Rs1&regMask], r[in.Rs2&regMask]
			res := a - b
			f = subPacked(a, b, res)
			r[in.Rd&regMask] = res
		case isa.SUBI:
			a, b := r[in.Rs1&regMask], uint64(in.Imm)
			res := a - b
			f = subPacked(a, b, res)
			r[in.Rd&regMask] = res
		case isa.MUL:
			res := r[in.Rs1&regMask] * r[in.Rs2&regMask]
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.IMUL:
			res := uint64(int64(r[in.Rs1&regMask]) * int64(r[in.Rs2&regMask]))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.DIV:
			d := r[in.Rs2&regMask]
			if d == 0 {
				c.exitBlock(f, hits, blk.pc+i)
				c.fault(ErrDivideByZero)
				return uint64(i), false
			}
			res := r[in.Rs1&regMask] / d
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.MOD:
			d := r[in.Rs2&regMask]
			if d == 0 {
				c.exitBlock(f, hits, blk.pc+i)
				c.fault(ErrDivideByZero)
				return uint64(i), false
			}
			res := r[in.Rs1&regMask] % d
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.NEG:
			res := -r[in.Rs1&regMask]
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.INC:
			res := r[in.Rd&regMask] + 1
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.DEC:
			res := r[in.Rd&regMask] - 1
			r[in.Rd&regMask] = res
			f = logicPacked(res)

		case isa.AND:
			res := r[in.Rs1&regMask] & r[in.Rs2&regMask]
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.ANDI:
			res := r[in.Rs1&regMask] & uint64(in.Imm)
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.OR:
			res := r[in.Rs1&regMask] | r[in.Rs2&regMask]
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.ORI:
			res := r[in.Rs1&regMask] | uint64(in.Imm)
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.XOR:
			res := r[in.Rs1&regMask] ^ r[in.Rs2&regMask]
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.XORI:
			res := r[in.Rs1&regMask] ^ uint64(in.Imm)
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.NOT:
			res := ^r[in.Rs1&regMask]
			r[in.Rd&regMask] = res
			f = logicPacked(res)

		case isa.SHL:
			res := r[in.Rs1&regMask] << (r[in.Rs2&regMask] & 63)
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.SHLI:
			res := r[in.Rs1&regMask] << (uint64(in.Imm) & 63)
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.SHR:
			res := r[in.Rs1&regMask] >> (r[in.Rs2&regMask] & 63)
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.SHRI:
			res := r[in.Rs1&regMask] >> (uint64(in.Imm) & 63)
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.SAR:
			res := uint64(int64(r[in.Rs1&regMask]) >> (r[in.Rs2&regMask] & 63))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.SARI:
			res := uint64(int64(r[in.Rs1&regMask]) >> (uint64(in.Imm) & 63))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.ROL:
			res := bits.RotateLeft64(r[in.Rs1&regMask], int(r[in.Rs2&regMask]&63))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.ROLI:
			res := bits.RotateLeft64(r[in.Rs1&regMask], int(uint64(in.Imm)&63))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.ROR:
			res := bits.RotateLeft64(r[in.Rs1&regMask], -int(r[in.Rs2&regMask]&63))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.RORI:
			res := bits.RotateLeft64(r[in.Rs1&regMask], -int(uint64(in.Imm)&63))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.ROL32I:
			res := uint64(bits.RotateLeft32(uint32(r[in.Rs1&regMask]), int(uint64(in.Imm)&31)))
			r[in.Rd&regMask] = res
			f = logicPacked(res)
		case isa.ROR32I:
			res := uint64(bits.RotateLeft32(uint32(r[in.Rs1&regMask]), -int(uint64(in.Imm)&31)))
			r[in.Rd&regMask] = res
			f = logicPacked(res)

		case isa.CMP:
			a, b := r[in.Rs1&regMask], r[in.Rs2&regMask]
			f = subPacked(a, b, a-b)
		case isa.CMPI:
			a, b := r[in.Rs1&regMask], uint64(in.Imm)
			f = subPacked(a, b, a-b)
		case isa.TEST:
			f = logicPacked(r[in.Rs1&regMask] & r[in.Rs2&regMask])

		// Control transfers and HALT only appear as a block's final
		// instruction. A transfer writes the block's state back and
		// returns; HALT leaves the loop as its last iteration.
		case isa.JMP:
			c.exitBlock(f, hits, int(in.Imm))
			return uint64(i + 1), true
		case isa.CALL:
			r[isa.SP] -= 8
			c.store(r[isa.SP], uint64(blk.pc+i+1), 8)
			c.exitBlock(f, hits, int(in.Imm))
			return uint64(i + 1), true
		case isa.RET:
			target := int(c.load(r[isa.SP], 8))
			r[isa.SP] += 8
			c.exitBlock(f, hits, target)
			return uint64(i + 1), true

		// Conditional branches test the packed bits directly; not taken,
		// they fall through past the block's last instruction.
		case isa.JE:
			if f&flagZ != 0 {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JNE:
			if f&flagZ == 0 {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JL:
			if lessPacked(f) {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JLE:
			if f&flagZ != 0 || lessPacked(f) {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JG:
			if f&flagZ == 0 && !lessPacked(f) {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JGE:
			if !lessPacked(f) {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JB:
			if f&flagC != 0 {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JBE:
			if f&(flagC|flagZ) != 0 {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JA:
			if f&(flagC|flagZ) == 0 {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.JAE:
			if f&flagC == 0 {
				c.exitBlock(f, hits, int(in.Imm))
				return uint64(i + 1), true
			}
		case isa.HALT:
			ctx.Halted = true

		default:
			c.exitBlock(f, hits, blk.pc+i)
			c.fault(ErrInvalidOp)
			return uint64(i), false
		}
	}
	c.exitBlock(f, hits, blk.pc+len(ops))
	return uint64(len(ops)), true
}

// exitBlock writes execBlock's register-held state back at a block exit:
// the packed flags, the successor PC and the TLB hits counted inline.
//
//cryptojack:hotpath
func (c *Core) exitBlock(f uint8, hits uint64, pc int) {
	c.ctx.Flags = unpackFlags(f)
	c.ctx.PC = pc
	c.tlb.hits += hits
}

// Packed condition codes. Inside execBlock the four Flags bits travel as one
// uint8 in a register: ctx.Flags is packed once on entry and unpacked once
// at the block's exit, and conditional branches test the bits directly.
const (
	flagZ uint8 = 1 << iota
	flagS
	flagC
	flagO
)

// regMask confines a register field to the register file, so execBlock's
// register accesses need no bounds check. Masking changes no result because
// NewContext, the only constructor of a runnable context, rejects any
// program whose register fields reach NumRegs.
const regMask = isa.NumRegs - 1

// Compile-time assertion that NumRegs is a power of two (else regMask
// would alias registers): the array length is non-zero otherwise.
var _ [0]struct{} = [isa.NumRegs & regMask]struct{}{}

// packFlags encodes f as flagZ|flagS|flagC|flagO bits.
//
//cryptojack:hotpath
func packFlags(f Flags) uint8 {
	return b2u8(f.Z) | b2u8(f.S)<<1 | b2u8(f.C)<<2 | b2u8(f.O)<<3
}

// unpackFlags is the inverse of packFlags.
//
//cryptojack:hotpath
func unpackFlags(p uint8) Flags {
	return Flags{Z: p&flagZ != 0, S: p&flagS != 0, C: p&flagC != 0, O: p&flagO != 0}
}

// b2u8 converts a bool to 0 or 1; the compiler lowers it to a SETcc.
//
//cryptojack:hotpath
func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// logicPacked is logicFlags in packed form: Z and S from res, C and O clear.
//
//cryptojack:hotpath
func logicPacked(res uint64) uint8 {
	return b2u8(res == 0) | uint8(res>>63)<<1
}

// addPacked is addFlags in packed form. The carry out of a+b is the top bit
// of (a&b)|((a|b)&^res); signed overflow is the top bit of ^(a^b)&(a^res).
//
//cryptojack:hotpath
func addPacked(a, b, res uint64) uint8 {
	c := ((a & b) | ((a | b) &^ res)) >> 63
	o := (^(a ^ b) & (a ^ res)) >> 63
	return logicPacked(res) | uint8(c)<<2 | uint8(o)<<3
}

// subPacked is subFlags in packed form. The borrow of a-b is the top bit of
// (^a&b)|(^(a^b)&res); signed overflow is the top bit of (a^b)&(a^res).
//
//cryptojack:hotpath
func subPacked(a, b, res uint64) uint8 {
	c := ((^a & b) | (^(a ^ b) & res)) >> 63
	o := ((a ^ b) & (a ^ res)) >> 63
	return logicPacked(res) | uint8(c)<<2 | uint8(o)<<3
}

// lessPacked reports signed less-than (S != O) from packed flags.
//
//cryptojack:hotpath
func lessPacked(f uint8) bool {
	return (f>>1^f>>3)&1 != 0
}
