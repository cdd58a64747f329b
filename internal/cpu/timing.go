package cpu

import (
	"darkarts/internal/isa"
)

// The detailed engine couples the functional executor with an analytic
// out-of-order timing model (in the style of interval simulation): each
// instruction is executed functionally at dispatch, while its issue and
// completion cycles are derived from dataflow dependences, execution port
// contention, cache latencies, fetch bandwidth, and branch mispredictions.
// A structural re-order buffer ring carries the paper's R (RSX) and C
// (complete) bits to the in-order commit point, where the retirement logic
// performs the R&&C check from Figure 4 and bumps the RSX counter.

// Execution ports. Port assignment approximates a Haswell-class core.
const (
	portALU0 = iota
	portALU1
	portALU2
	portMulDiv
	portLoad
	portStore
	numPorts
)

// robEntry is one re-order buffer slot (Figure 4: instruction, R bit, C bit).
type robEntry struct {
	op      isa.Op
	rsx     bool   // the R bit, set at decode from the microcode tag table
	doneAt  uint64 // cycle at which the C bit is set
	rawInst isa.Inst
}

// timing is the detailed engine's microarchitectural state: mid-quantum
// pipeline occupancy determines the cycle at which every later
// instruction retires.
type timing struct {
	// rob is a ring buffer of in-flight instructions.
	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	// Dataflow scheduling state.
	regReady   [isa.NumRegs]uint64
	flagsReady uint64
	spReady    uint64 // PUSH/POP/CALL/RET serialize on the stack engine
	portFree   [numPorts]uint64

	// Front-end state.
	fetchCycle   uint64
	fetchedInCyc int
	lastFetchBlk uint64

	// In-order retirement state.
	retireCycle  uint64
	retiredInCyc int

	cycle uint64 // committed simulated cycle count (advances at retire)

	pred predictor

	stats PipelineStats
}

// PipelineStats are detailed-engine observability counters.
type PipelineStats struct {
	ROBFullStalls   uint64 // rename stalled on a full re-order buffer
	FetchRedirects  uint64 // front-end redirects from branch mispredictions
	ICacheBlockMiss uint64 // instruction blocks fetched beyond L1I latency
	LoadsIssued     uint64
	StoresIssued    uint64
}

func (t *timing) init(cfg Config) {
	t.rob = make([]robEntry, cfg.ROBSize)
	t.pred.init(cfg.PredictorBits, cfg.RASDepth)
}

// reset prepares the pipeline for a new context: all state becomes ready at
// the current cycle (pipeline refill cost is charged via FrontendDepth on
// the next fetch).
func (t *timing) resetDataflow() {
	for i := range t.regReady {
		t.regReady[i] = t.cycle
	}
	t.flagsReady = t.cycle
	t.spReady = t.cycle
	for i := range t.portFree {
		t.portFree[i] = t.cycle
	}
	t.fetchCycle = t.cycle
	t.fetchedInCyc = 0
	t.lastFetchBlk = ^uint64(0)
	if t.retireCycle < t.cycle {
		t.retireCycle = t.cycle
	}
}

// drain retires everything in flight (context switch / end of quantum).
func (t *timing) drain(c *Core) {
	for t.robCount > 0 {
		t.retireOne(c)
	}
	if t.cycle < t.retireCycle {
		t.cycle = t.retireCycle
	}
	t.resetDataflow()
}

// retireOne pops the ROB head, applying the in-order retire-width
// constraint, and performs the R&&C commit check.
func (t *timing) retireOne(c *Core) {
	e := &t.rob[t.robHead]
	// In-order: cannot retire before the instruction is complete, nor
	// before the previous retirement cycle.
	when := e.doneAt
	if when < t.retireCycle {
		when = t.retireCycle
	}
	if when == t.retireCycle {
		if t.retiredInCyc >= c.cfg.RetireWidth {
			when++
			t.retiredInCyc = 0
		}
	} else {
		t.retiredInCyc = 0
	}
	t.retireCycle = when
	t.retiredInCyc++

	// Figure 4: commit point examines the R and C bits. C is set by
	// construction here (doneAt <= retireCycle); R came from the decoder.
	if e.rsx {
		c.bank.AddRSX(1)
	}
	c.bank.AddRetired(1)
	c.bank.CountOp(e.op)
	if c.observer != nil {
		c.observer.Retired(c.id, e.rawInst)
	}

	t.robHead = (t.robHead + 1) % len(t.rob)
	t.robCount--
	if t.cycle < t.retireCycle {
		t.cycle = t.retireCycle
	}
}

// runDetailed executes up to maxInsts instructions under the timing model.
func (c *Core) runDetailed(maxInsts uint64) uint64 {
	ctx := c.ctx
	t := &c.tm
	tags := c.tagTable()
	startCycle := t.cycle
	startRetire := t.retireCycle
	_ = startRetire

	var n uint64
	for n < maxInsts {
		if ctx.PC < 0 || ctx.PC >= len(ctx.Prog.Code) {
			c.fault(ErrPCOutOfRange)
			break
		}
		pc := ctx.PC
		in := ctx.Prog.Code[pc]

		// --- Fetch: bandwidth + I-cache ---
		instAddr := ctx.CodeBase + uint64(pc*isa.InstBytes)
		blk := instAddr >> 6
		if blk != t.lastFetchBlk {
			t.lastFetchBlk = blk
			lat := uint64(c.hier.FetchLatency(c.id, instAddr))
			if want := t.fetchCycle + lat - uint64(c.cfg.MemCfg.L1I.LatencyCy); lat > uint64(c.cfg.MemCfg.L1I.LatencyCy) && want > t.fetchCycle {
				t.fetchCycle = want
				t.fetchedInCyc = 0
				t.stats.ICacheBlockMiss++
			}
		}
		if t.fetchedInCyc >= c.cfg.FetchWidth {
			t.fetchCycle++
			t.fetchedInCyc = 0
		}
		t.fetchedInCyc++
		renameCycle := t.fetchCycle + uint64(c.cfg.FrontendDepth)

		// --- ROB allocation (stall while full) ---
		if t.robCount == len(t.rob) {
			t.stats.ROBFullStalls++
			t.retireOne(c)
			if renameCycle < t.retireCycle {
				renameCycle = t.retireCycle
			}
		}

		// --- Functional execution (provides correctness + branch outcome) ---
		prevPC := ctx.PC
		if !c.exec(in) {
			break
		}
		taken := ctx.PC != prevPC+1

		// --- Issue scheduling: dataflow + ports ---
		issue := renameCycle + 1
		issue = maxU64(issue, t.srcReady(in))
		port := portFor(in.Op)
		p := t.pickPort(port, issue)
		if t.portFree[p] > issue {
			issue = t.portFree[p]
		}
		lat := c.execLatency(in, taken)
		done := issue + lat
		t.portFree[p] = issue + 1
		if in.Op == isa.DIV || in.Op == isa.MOD {
			t.portFree[p] = done // unpipelined divider
		}
		t.writeDest(in, done)

		// --- Branch prediction ---
		if in.Op.IsBranch() {
			if !t.pred.predict(c, in, pc, taken, ctx.PC) {
				c.bank.AddBranchMiss()
				t.stats.FetchRedirects++
				redirect := done + uint64(c.cfg.MispredictPenalty)
				if redirect > t.fetchCycle {
					t.fetchCycle = redirect
					t.fetchedInCyc = 0
				}
			}
		}

		// --- ROB insert: R bit from decoder tag table, C bit at done ---
		t.rob[t.robTail] = robEntry{
			op:      in.Op,
			rsx:     tags.Tagged(in.Op),
			doneAt:  done,
			rawInst: in,
		}
		t.robTail = (t.robTail + 1) % len(t.rob)
		t.robCount++

		n++
		if in.Op == isa.HALT {
			ctx.Halted = true
			break
		}
	}

	t.drain(c)
	c.bank.AddCycles(t.cycle - startCycle)
	return n
}

// srcReady returns the cycle when all of in's source operands are ready.
func (t *timing) srcReady(in isa.Inst) uint64 {
	var ready uint64
	op := in.Op
	switch {
	case op == isa.MOVI, op == isa.NOP, op == isa.HALT, op == isa.JMP:
		// no register sources
	case op == isa.PUSH:
		ready = maxU64(t.regReady[in.Rs1], t.spReady)
	case op == isa.POP, op == isa.RET:
		ready = t.spReady
	case op == isa.CALL:
		ready = t.spReady
	case op.IsCondBranch():
		ready = t.flagsReady
	case op.Is(isa.ClassStore):
		ready = maxU64(t.regReady[in.Rs1], t.regReady[in.Rs2])
	case op.Is(isa.ClassLoad), op == isa.MOV, op == isa.NOT, op == isa.NEG, op == isa.LEA:
		ready = t.regReady[in.Rs1]
	case op == isa.INC || op == isa.DEC:
		ready = t.regReady[in.Rd]
	case op == isa.CMPI:
		ready = t.regReady[in.Rs1]
	case op == isa.CMP || op == isa.TEST:
		ready = maxU64(t.regReady[in.Rs1], t.regReady[in.Rs2])
	case hasImmForm(op):
		ready = t.regReady[in.Rs1]
	default:
		ready = maxU64(t.regReady[in.Rs1], t.regReady[in.Rs2])
	}
	return ready
}

// writeDest records when in's destination becomes available.
func (t *timing) writeDest(in isa.Inst, done uint64) {
	op := in.Op
	switch {
	case op == isa.PUSH || op == isa.POP || op == isa.CALL || op == isa.RET:
		t.spReady = done
		if op == isa.POP {
			t.regReady[in.Rd] = done
		}
	case op == isa.CMP || op == isa.CMPI || op == isa.TEST:
		t.flagsReady = done
	case op.Is(isa.ClassStore) || op.IsBranch() || op == isa.NOP || op == isa.HALT:
		// no register destination
	default:
		t.regReady[in.Rd] = done
		t.flagsReady = done // ALU ops also update flags
	}
}

// pickPort chooses the concrete port for an op class, preferring the one
// free earliest among equivalent ALU ports.
func (t *timing) pickPort(p int, issue uint64) int {
	if p != portALU0 {
		return p
	}
	best := portALU0
	for _, cand := range [...]int{portALU0, portALU1, portALU2} {
		if t.portFree[cand] <= issue {
			return cand
		}
		if t.portFree[cand] < t.portFree[best] {
			best = cand
		}
	}
	return best
}

func portFor(op isa.Op) int {
	switch {
	case op.Is(isa.ClassMulDiv):
		return portMulDiv
	case op.Is(isa.ClassLoad):
		return portLoad
	case op.Is(isa.ClassStore):
		return portStore
	default:
		return portALU0 // any ALU port
	}
}

// execLatency returns the execution latency in cycles for in. Loads consult
// the cache hierarchy.
func (c *Core) execLatency(in isa.Inst, taken bool) uint64 {
	op := in.Op
	switch {
	case op == isa.MUL || op == isa.IMUL:
		return 3
	case op == isa.DIV || op == isa.MOD:
		return 20
	case op.Is(isa.ClassLoad):
		c.tm.stats.LoadsIssued++
		addr := c.ctx.Regs[in.Rs1] + uint64(in.Imm)
		if op == isa.POP || op == isa.RET {
			addr = c.ctx.Regs[isa.SP] - 8 // already popped functionally
		}
		return uint64(c.hier.LoadLatency(c.id, addr))
	case op.Is(isa.ClassStore):
		addr := c.ctx.Regs[in.Rs1] + uint64(in.Imm)
		if op == isa.PUSH || op == isa.CALL {
			addr = c.ctx.Regs[isa.SP]
		}
		// Stores complete into the store buffer; cache is updated for
		// occupancy/coherence stats but does not stall the pipe.
		c.tm.stats.StoresIssued++
		c.hier.StoreLatency(c.id, addr)
		return 1
	default:
		return 1
	}
}

func maxU64(a uint64, bs ...uint64) uint64 {
	for _, b := range bs {
		if b > a {
			a = b
		}
	}
	return a
}

func hasImmForm(op isa.Op) bool {
	switch op {
	case isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SARI, isa.ROLI, isa.RORI, isa.ROL32I, isa.ROR32I:
		return true
	default:
		return false
	}
}

// predictor is a gshare conditional predictor plus a return address stack.
// Direct jumps/calls are always predicted correctly (static targets).
type predictor struct {
	table []uint8 // 2-bit saturating counters
	mask  uint32
	ghist uint32
	ras   []int
	rasSP int
}

func (p *predictor) init(bitsN, rasDepth int) {
	p.table = make([]uint8, 1<<bitsN)
	for i := range p.table {
		p.table[i] = 1 // weakly not-taken
	}
	p.mask = uint32(len(p.table) - 1)
	p.ras = make([]int, rasDepth)
	p.rasSP = 0
}

// predict returns whether the branch at pc was predicted correctly, and
// trains the predictor.
func (p *predictor) predict(c *Core, in isa.Inst, pc int, taken bool, target int) bool {
	switch in.Op {
	case isa.JMP:
		return true
	case isa.CALL:
		if p.rasSP < len(p.ras) {
			p.ras[p.rasSP] = pc + 1
		}
		p.rasSP++
		return true
	case isa.RET:
		p.rasSP--
		if p.rasSP >= 0 && p.rasSP < len(p.ras) {
			return p.ras[p.rasSP] == target
		}
		if p.rasSP < 0 {
			p.rasSP = 0
		}
		return false // RAS underflow/overflow: mispredict
	default:
		idx := (uint32(pc) ^ p.ghist) & p.mask
		pred := p.table[idx] >= 2
		if taken && p.table[idx] < 3 {
			p.table[idx]++
		}
		if !taken && p.table[idx] > 0 {
			p.table[idx]--
		}
		p.ghist = (p.ghist << 1) | b2u(taken)
		return pred == taken
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
