package gsa

import (
	"sort"

	"darkarts/internal/isa"
)

// CallSite records one CALL instruction and the entry pc it targets.
type CallSite struct {
	PC     int
	Callee int
}

// Block is one basic block: instructions [Start, End) of the program,
// ending at a control transfer, HALT, an invalid opcode, or the start of
// another block (a branch target splitting a straight-line run).
type Block struct {
	Start, End   int
	Succs, Preds []int // block indices within the owning Func
}

// Len returns the block's instruction count.
func (b Block) Len() int { return b.End - b.Start }

// Func is the intraprocedural CFG of one function: a program entry or
// CALL target plus everything reachable from it by non-call control flow.
// CALL is treated as straight-line (the fallthrough edge stays in the
// caller); the callee is recorded as a CallSite and folded back in through
// call-graph summaries (score.go).
type Func struct {
	Entry  int
	Name   string
	Blocks []Block // sorted by Start
	Calls  []CallSite
	Loops  []*Loop // sorted by head pc

	entryBlock int
	idom       []int       // immediate dominator per block; entry's is itself
	index      map[int]int // start pc -> block index
}

// BlockAt returns the index of the block starting at pc.
func (f *Func) BlockAt(pc int) (int, bool) {
	i, ok := f.index[pc]
	return i, ok
}

// Idom returns the immediate dominator of block b (the entry block
// dominates itself).
func (f *Func) Idom(b int) int { return f.idom[b] }

// Dominates reports whether block h dominates block u.
func (f *Func) Dominates(h, u int) bool {
	for {
		if u == h {
			return true
		}
		if u == f.entryBlock {
			return false
		}
		u = f.idom[u]
	}
}

// endsBlock reports whether the opcode terminates a basic block.
func endsBlock(op isa.Op) bool {
	return op.IsBranch() || op == isa.HALT || !op.Valid()
}

// buildFunc discovers the instructions reachable from entry by non-call
// flow, partitions them into blocks at leaders (entry, branch targets,
// fallthroughs of terminators), and wires the intra-function edges.
func buildFunc(p *isa.Program, entry int, name string) *Func {
	code := p.Code
	reach := make(map[int]bool)
	leader := map[int]bool{entry: true}
	var calls []CallSite

	work := []int{entry}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc < 0 || pc >= len(code) || reach[pc] {
			continue
		}
		reach[pc] = true
		push := func(t int, lead bool) {
			if t < 0 || t >= len(code) {
				return
			}
			if lead {
				leader[t] = true
			}
			if !reach[t] {
				work = append(work, t)
			}
		}
		in := code[pc]
		switch {
		case in.Op == isa.JMP:
			push(int(in.Imm), true)
		case in.Op.IsCondBranch():
			push(int(in.Imm), true)
			push(pc+1, true)
		case in.Op == isa.CALL:
			calls = append(calls, CallSite{PC: pc, Callee: int(in.Imm)})
			push(pc+1, true)
		case in.Op == isa.RET || in.Op == isa.HALT || !in.Op.Valid():
			// Path ends here.
		default:
			push(pc+1, false)
		}
	}

	starts := make([]int, 0, len(leader))
	for pc := range leader {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	kept := starts[:0]
	for _, pc := range starts {
		if reach[pc] {
			kept = append(kept, pc)
		}
	}
	starts = kept

	f := &Func{
		Entry: entry,
		Name:  name,
		Calls: calls,
		index: make(map[int]int, len(starts)),
	}
	sort.Slice(f.Calls, func(i, j int) bool { return f.Calls[i].PC < f.Calls[j].PC })
	for _, start := range starts {
		end := start
		for {
			op := code[end].Op
			end++
			if endsBlock(op) || end >= len(code) || leader[end] {
				break
			}
		}
		f.index[start] = len(f.Blocks)
		f.Blocks = append(f.Blocks, Block{Start: start, End: end})
	}
	f.entryBlock = f.index[entry]

	for i := range f.Blocks {
		blk := &f.Blocks[i]
		last := code[blk.End-1]
		succ := func(pc int) {
			if t, ok := f.index[pc]; ok {
				blk.Succs = append(blk.Succs, t)
			}
		}
		switch {
		case last.Op == isa.JMP:
			succ(int(last.Imm))
		case last.Op.IsCondBranch():
			succ(int(last.Imm))
			succ(blk.End)
		case last.Op == isa.RET || last.Op == isa.HALT || !last.Op.Valid():
			// No intra-function successors.
		default:
			// CALL fallthrough, or a straight-line run split by a leader or
			// the code end.
			succ(blk.End)
		}
	}
	for i := range f.Blocks {
		for _, s := range f.Blocks[i].Succs {
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, i)
		}
	}

	f.computeDoms()
	f.findLoops(code)
	return f
}

// Funcs builds the per-function CFGs of a program: one Func for the entry
// point and one per distinct CALL target, in ascending entry-pc order.
// Function names come from the program's symbol table when a label lands
// exactly on the entry.
func Funcs(p *isa.Program) []*Func {
	if len(p.Code) == 0 {
		return nil
	}
	names := make(map[int]string, len(p.Symbols))
	syms := make([]string, 0, len(p.Symbols))
	for s := range p.Symbols {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		if _, taken := names[p.Symbols[s]]; !taken {
			names[p.Symbols[s]] = s
		}
	}

	seen := map[int]bool{p.Entry: true}
	entries := []int{p.Entry}
	// CALL targets can themselves contain CALLs to functions never called
	// from the entry's reach, so iterate to a fixpoint over new functions.
	var funcs []*Func
	for i := 0; i < len(entries); i++ {
		entry := entries[i]
		name := names[entry]
		if name == "" && entry == p.Entry {
			name = "entry"
		}
		fn := buildFunc(p, entry, name)
		funcs = append(funcs, fn)
		for _, cs := range fn.Calls {
			if !seen[cs.Callee] {
				seen[cs.Callee] = true
				entries = append(entries, cs.Callee)
			}
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Entry < funcs[j].Entry })
	return funcs
}
