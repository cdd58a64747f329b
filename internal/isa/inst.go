package isa

import "fmt"

// Reg names a general purpose register. The machine has 32 64-bit registers;
// by software convention R31 is the stack pointer and R30 the link/frame
// scratch register.
type Reg uint8

// Register aliases.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31

	// SP is the stack pointer by convention (PUSH/POP/CALL/RET use it).
	SP = R31
	// FP is the conventional frame scratch register.
	FP = R30

	// NumRegs is the architectural register count.
	NumRegs = 32
)

// String returns the assembly name of the register.
func (r Reg) String() string {
	switch r {
	case SP:
		return "sp"
	case FP:
		return "fp"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Inst is a single decoded instruction. The interpretation of the fields
// depends on the opcode:
//
//   - three-operand ALU ops: Rd = Rs1 <op> Rs2 (or Imm for the -I forms)
//   - loads:  Rd = mem[Rs1 + Imm]
//   - stores: mem[Rs1 + Imm] = Rs2
//   - branches: Imm is the target instruction index
//
// An Inst is a value: once assembled into a Program it is never mutated.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// String renders the instruction in assembly-like syntax.
func (i Inst) String() string {
	switch {
	case i.Op == MOVI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case i.Op.Is(ClassLoad) && i.Op != POP:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, i.Rd, i.Rs1, i.Imm)
	case i.Op.Is(ClassStore) && i.Op != PUSH:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, i.Rs1, i.Imm, i.Rs2)
	case i.Op == PUSH:
		return fmt.Sprintf("PUSH %s", i.Rs1)
	case i.Op == POP:
		return fmt.Sprintf("POP %s", i.Rd)
	case i.Op.IsBranch() && i.Op != RET:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case i.Op == RET, i.Op == NOP, i.Op == HALT:
		return i.Op.String()
	case i.Op == CMP || i.Op == TEST:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rs1, i.Rs2)
	case i.Op == CMPI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rs1, i.Imm)
	case i.Op == MOV || i.Op == NOT || i.Op == NEG:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	case i.Op == INC || i.Op == DEC:
		return fmt.Sprintf("%s %s", i.Op, i.Rd)
	case hasImmOperand(i.Op):
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

func hasImmOperand(o Op) bool {
	switch o {
	case MOVI, ADDI, SUBI, ANDI, ORI, XORI, SHLI, SHRI, SARI, ROLI, RORI, ROL32I, ROR32I, CMPI, LEA:
		return true
	default:
		return false
	}
}

// InstBytes is the modelled encoded size of one instruction. Program
// addresses for the instruction cache are instructionIndex * InstBytes.
const InstBytes = 4

// Program is an executable sequence of instructions plus metadata used by
// loaders and by the static analyses in internal/trace.
//
// Programs are write-once: the assembler/builder fills them in and
// nothing mutates them after a machine starts executing, which is what
// lets cores, the decoded-block store, and whole fleets alias one image.
type Program struct {
	Name    string
	Code    []Inst
	Entry   int            // entry instruction index
	Symbols map[string]int // label -> instruction index
	// DataSize is the number of bytes of zero-initialised scratch memory the
	// program expects above its data base address.
	DataSize int64
	// Data holds initialised data to copy at the data base address.
	Data []byte
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// SymbolAt returns the instruction index of a label.
func (p *Program) SymbolAt(name string) (int, bool) {
	idx, ok := p.Symbols[name]
	return idx, ok
}

// StaticHistogram counts the static (compiled, not executed) occurrences of
// each opcode in the program, mirroring the paper's Figure 1 objdump
// analysis of Monero's keccakf().
func (p *Program) StaticHistogram() map[Op]int {
	h := make(map[Op]int)
	for _, in := range p.Code {
		h[in.Op]++
	}
	return h
}

// Validate checks structural invariants: defined opcodes, in-range registers
// and branch targets. It returns the first problem found.
func (p *Program) Validate() error {
	for idx, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("program %q: instruction %d: invalid opcode", p.Name, idx)
		}
		if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
			return fmt.Errorf("program %q: instruction %d (%s): register out of range", p.Name, idx, in)
		}
		if in.Op.IsBranch() && in.Op != RET {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("program %q: instruction %d (%s): branch target out of range", p.Name, idx, in)
			}
		}
	}
	if p.Entry < 0 || (len(p.Code) > 0 && p.Entry >= len(p.Code)) {
		return fmt.Errorf("program %q: entry %d out of range", p.Name, p.Entry)
	}
	return nil
}
