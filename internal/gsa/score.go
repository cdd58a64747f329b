package gsa

import (
	"sort"

	"darkarts/internal/isa"
)

// Scoring model. Every weight is a named constant so the golden score
// manifest (internal/workload/guestlint_manifest.txt) pins the whole
// model: retuning a weight shows up as manifest drift, reviewed like any
// other golden change.
const (
	// weightIdiom caps the crypto-idiom contribution to a loop score.
	weightIdiom = 0.25
	// weightPoW is the proof-of-work structure bonus — the separator that
	// puts miners above benign crypto kernels, whose loops share the RSX
	// density but never the PoW shape. Benign scores top out below
	// 1 (density ≤ 1 by construction, idioms ≤ 0.25, no PoW), so any PoW
	// loop outranks every benign loop with margin to spare.
	weightPoW = 2.0

	// A PoW loop must carry substantial crypto mass: at least powMinInsts
	// instructions per iteration (callees included) at powMinDensity RSX
	// density. A bare compare-and-branch polling loop is not mining.
	powMinInsts   = 64
	powMinDensity = 0.10

	// Idiom signal scaling: chains are the strongest single signal, wide
	// immediates next, sub-word loads weakest (image codecs use them too).
	idiomPerChain      = 0.2
	idiomPerRoundConst = 0.1
	idiomPerSBoxLoad   = 0.02

	// RiskFlagThreshold is the default admit/flag boundary consumers use:
	// fleet admission policy and the kernel's static detection prior both
	// treat RiskScore ≥ this as statically flagged. Only a PoW loop can
	// cross it (see weightPoW).
	RiskFlagThreshold = 1.0

	// maxHotLoops caps the loops listed in a StaticProfile (placements
	// travel over the fleet API).
	maxHotLoops = 16
)

// HotLoop is one scored loop in a StaticProfile, ranked by Score.
type HotLoop struct {
	Func        string  `json:"func,omitempty"`
	HeadPC      int     `json:"head_pc"`
	Depth       int     `json:"depth"`
	Insts       int     `json:"insts"`
	RSX         int     `json:"rsx"`
	Density     float64 `json:"density"`
	TripBound   int     `json:"trip_bound,omitempty"`
	Calls       int     `json:"calls,omitempty"`
	PoW         bool    `json:"pow,omitempty"`
	Chains      int     `json:"chains,omitempty"`
	SBoxLoads   int     `json:"sbox_loads,omitempty"`
	RoundConsts int     `json:"round_consts,omitempty"`
	Score       float64 `json:"score"`
}

// StaticProfile is the whole-program result of Analyze.
type StaticProfile struct {
	Name         string `json:"name"`
	Insts        int    `json:"insts"`
	Funcs        int    `json:"funcs"`
	Blocks       int    `json:"blocks"`
	Loops        int    `json:"loops"`
	MaxLoopDepth int    `json:"max_loop_depth"`
	// RSXDensity is the static RSX fraction over the whole code image;
	// LoopRSXDensity is the callee-weighted density of the top-scoring
	// loop — the density the program can sustain while looping.
	RSXDensity     float64 `json:"rsx_density"`
	LoopRSXDensity float64 `json:"loop_rsx_density"`
	PoWLoops       int     `json:"pow_loops"`
	// RiskScore is the maximum loop score (falling back to RSXDensity for
	// loop-free programs, which cannot sustain mining at all).
	RiskScore float64   `json:"risk_score"`
	HotLoops  []HotLoop `json:"hot_loops,omitempty"`
}

// Flagged reports whether the profile crosses the static flag boundary.
func (p StaticProfile) Flagged() bool { return p.RiskScore >= RiskFlagThreshold }

// fnStats is one function's static mass and idiom counts: Own over the
// function's own blocks, Total folding in every callee transitively (one
// share per call site, approximating each call's dynamic weight).
type fnStats struct {
	ownInsts, ownRSX                  int
	ownChains, ownSBox, ownRoundConst int
	insts, rsx                        int
	chains, sbox, roundConst          int
}

// mixing ops eligible to extend a XOR/rotate chain: the ARX/logic families
// every software crypto round function is built from.
func chainEligible(op isa.Op) bool {
	switch op {
	case isa.XOR, isa.XORI, isa.NOT,
		isa.AND, isa.ANDI, isa.OR, isa.ORI,
		isa.ADD, isa.ADDI, isa.SUB, isa.SUBI,
		isa.SHL, isa.SHLI, isa.SHR, isa.SHRI, isa.SAR, isa.SARI,
		isa.ROL, isa.ROLI, isa.ROR, isa.RORI, isa.ROL32I, isa.ROR32I:
		return true
	default:
		return false
	}
}

func isXorFamily(op isa.Op) bool { return op.Is(isa.ClassXor) }
func isRotShift(op isa.Op) bool  { return op.Is(isa.ClassRotate | isa.ClassShift) }

// minChainLen is the shortest instruction run counted as a mixing chain.
const minChainLen = 4

// roundConstMin is the immediate magnitude past which an ALU immediate is
// counted as a round-constant idiom. Loop counters, offsets, and the
// synthetic mixes' 16-bit immediates stay below it.
const roundConstMin = 1 << 20

// blockIdioms scans one straight-line range for idiom occurrences:
// XOR/rotate mixing chains (a run of ≥ minChainLen chain-eligible ops
// containing both a xor and a rotate/shift), sub-word loads, and wide ALU
// immediates.
func blockIdioms(code []isa.Inst, start, end int) (chains, sbox, roundConst int) {
	runLen, runXor, runRot := 0, false, false
	flush := func() {
		if runLen >= minChainLen && runXor && runRot {
			chains++
		}
		runLen, runXor, runRot = 0, false, false
	}
	for pc := start; pc < end; pc++ {
		in := code[pc]
		if chainEligible(in.Op) {
			runLen++
			runXor = runXor || isXorFamily(in.Op)
			runRot = runRot || isRotShift(in.Op)
		} else {
			flush()
		}
		switch in.Op {
		case isa.LD8, isa.LD16, isa.LD32:
			sbox++
		case isa.MOVI, isa.XORI, isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI:
			if in.Imm >= roundConstMin || in.Imm <= -roundConstMin {
				roundConst++
			}
		default:
			// Every other opcode contributes no idiom signal.
		}
	}
	flush()
	return chains, sbox, roundConst
}

// counterUpdates counts in-memory counter cells updated in a straight-line
// range: a load, an ADDI/SUBI of the loaded register, and a store back to
// the same address expression — the nonce/budget idiom of a mining loop.
// Register-counted loops (every benign kernel here) never match.
func counterUpdates(code []isa.Inst, start, end int) int {
	type pending struct {
		base     isa.Reg
		off      int64
		modified bool
	}
	var loads [isa.NumRegs]*pending
	n := 0
	for pc := start; pc < end; pc++ {
		in := code[pc]
		if in.Op == isa.ST && loads[in.Rs2] != nil {
			p := loads[in.Rs2]
			if p.modified && p.base == in.Rs1 && p.off == in.Imm {
				n++
				loads[in.Rs2] = nil
				continue
			}
		}
		if in.Op == isa.LD {
			loads[in.Rd] = &pending{base: in.Rs1, off: in.Imm}
			continue
		}
		if (in.Op == isa.ADDI || in.Op == isa.SUBI) && in.Rd == in.Rs1 && loads[in.Rd] != nil {
			loads[in.Rd].modified = true
			continue
		}
		// Any other write to a tracked register breaks the pattern.
		switch {
		case in.Op.Is(isa.ClassStore), in.Op == isa.CMP, in.Op == isa.CMPI, in.Op == isa.TEST,
			in.Op.IsBranch(), in.Op == isa.NOP, in.Op == isa.HALT:
			// No destination register.
		default:
			loads[in.Rd] = nil
		}
	}
	return n
}

// unsignedExit reports whether the loop has a conditional unsigned
// ordered-compare branch (JB/JBE/JA/JAE — a hash-below-target check) with
// a successor outside the loop.
func (f *Func) unsignedExit(l *Loop, code []isa.Inst) bool {
	for _, b := range l.Blocks {
		blk := f.Blocks[b]
		if !code[blk.End-1].Op.IsUnsignedCondBranch() {
			continue
		}
		for _, s := range blk.Succs {
			if !l.contains(s) {
				return true
			}
		}
	}
	return false
}

// analyzeProgram runs the full pipeline: CFGs, function summaries with a
// memoized transitive walk (cycles contribute zero on the back edge), and
// per-loop scoring.
func analyzeProgram(p *isa.Program) ([]*Func, StaticProfile) {
	funcs := Funcs(p)
	prof := StaticProfile{Name: p.Name, Insts: len(p.Code), Funcs: len(funcs)}

	byEntry := make(map[int]*fnStats, len(funcs))
	fn := make(map[int]*Func, len(funcs))
	for _, f := range funcs {
		fn[f.Entry] = f
	}

	var summarize func(entry int) *fnStats
	visiting := make(map[int]bool)
	summarize = func(entry int) *fnStats {
		if s, ok := byEntry[entry]; ok {
			return s
		}
		f := fn[entry]
		if f == nil || visiting[entry] {
			return &fnStats{} // unknown callee or recursion back edge
		}
		visiting[entry] = true
		s := &fnStats{}
		for _, blk := range f.Blocks {
			s.ownInsts += blk.Len()
			for pc := blk.Start; pc < blk.End; pc++ {
				if p.Code[pc].Op.Attr().RSX {
					s.ownRSX++
				}
			}
			c, sb, rc := blockIdioms(p.Code, blk.Start, blk.End)
			s.ownChains += c
			s.ownSBox += sb
			s.ownRoundConst += rc
		}
		s.insts, s.rsx = s.ownInsts, s.ownRSX
		s.chains, s.sbox, s.roundConst = s.ownChains, s.ownSBox, s.ownRoundConst
		for _, cs := range f.Calls {
			cal := summarize(cs.Callee)
			s.insts += cal.insts
			s.rsx += cal.rsx
			s.chains += cal.chains
			s.sbox += cal.sbox
			s.roundConst += cal.roundConst
		}
		delete(visiting, entry)
		byEntry[entry] = s
		return s
	}

	rsxTotal := 0
	for _, in := range p.Code {
		if in.Op.Attr().RSX {
			rsxTotal++
		}
	}
	if len(p.Code) > 0 {
		prof.RSXDensity = float64(rsxTotal) / float64(len(p.Code))
	}

	var hot []HotLoop
	for _, f := range funcs {
		prof.Blocks += len(f.Blocks)
		for _, l := range f.Loops {
			prof.Loops++
			if l.Depth > prof.MaxLoopDepth {
				prof.MaxLoopDepth = l.Depth
			}
			counters := 0
			for _, b := range l.Blocks {
				blk := f.Blocks[b]
				l.Insts += blk.Len()
				for pc := blk.Start; pc < blk.End; pc++ {
					if p.Code[pc].Op.Attr().RSX {
						l.RSX++
					}
				}
				c, sb, rc := blockIdioms(p.Code, blk.Start, blk.End)
				l.Chains += c
				l.SBoxLoads += sb
				l.RoundConsts += rc
				counters += counterUpdates(p.Code, blk.Start, blk.End)
			}
			l.TotalInsts, l.TotalRSX = l.Insts, l.RSX
			for _, cs := range f.Calls {
				if bi, ok := f.BlockAt(blockStartOf(f, cs.PC)); ok && l.contains(bi) {
					l.Calls++
					cal := summarize(cs.Callee)
					l.TotalInsts += cal.insts
					l.TotalRSX += cal.rsx
					l.Chains += cal.chains
					l.SBoxLoads += cal.sbox
					l.RoundConsts += cal.roundConst
				}
			}
			if l.TotalInsts > 0 {
				l.Density = float64(l.TotalRSX) / float64(l.TotalInsts)
			}
			l.PoW = f.unsignedExit(l, p.Code) && counters > 0 &&
				l.TotalInsts >= powMinInsts && l.Density >= powMinDensity
			if l.PoW {
				prof.PoWLoops++
			}

			idiom := idiomPerChain*float64(l.Chains) +
				idiomPerRoundConst*float64(l.RoundConsts) +
				idiomPerSBoxLoad*float64(l.SBoxLoads)
			if idiom > 1 {
				idiom = 1
			}
			l.Score = l.Density + weightIdiom*idiom
			if l.PoW {
				l.Score += weightPoW
			}

			hot = append(hot, HotLoop{
				Func: f.Name, HeadPC: l.HeadPC, Depth: l.Depth,
				Insts: l.TotalInsts, RSX: l.TotalRSX, Density: l.Density,
				TripBound: l.TripBound, Calls: l.Calls, PoW: l.PoW,
				Chains: l.Chains, SBoxLoads: l.SBoxLoads, RoundConsts: l.RoundConsts,
				Score: l.Score,
			})
		}
	}

	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Score != hot[j].Score {
			return hot[i].Score > hot[j].Score
		}
		return hot[i].HeadPC < hot[j].HeadPC
	})
	if len(hot) > 0 {
		prof.RiskScore = hot[0].Score
		prof.LoopRSXDensity = hot[0].Density
	} else {
		prof.RiskScore = prof.RSXDensity
	}
	if len(hot) > maxHotLoops {
		hot = hot[:maxHotLoops]
	}
	prof.HotLoops = hot
	return funcs, prof
}

// blockStartOf returns the start pc of the block containing pc.
func blockStartOf(f *Func, pc int) int {
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Start > pc })
	if i == 0 {
		return -1
	}
	return f.Blocks[i-1].Start
}

// Analyze runs the static pipeline over a program and returns its profile.
func Analyze(p *isa.Program) StaticProfile {
	_, prof := analyzeProgram(p)
	return prof
}

// AnalyzeFuncs returns the per-function CFGs alongside the profile, for
// callers that want the structure as well as the verdict (cmd/guestlint).
func AnalyzeFuncs(p *isa.Program) ([]*Func, StaticProfile) {
	return analyzeProgram(p)
}

// Annotate is Analyze. It exists only so the frozen perfbench module, which
// still calls it, keeps compiling.
func Annotate(p *isa.Program) StaticProfile { return Analyze(p) }
