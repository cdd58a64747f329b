package isa

import "fmt"

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. The zero value is reserved so that an accidentally zeroed
// instruction is caught as illegal rather than silently executing.
const (
	OpInvalid Op = iota

	// Data movement.
	MOV  // MOV  rd, rs1        rd = rs1
	MOVI // MOVI rd, imm        rd = imm
	LD   // LD   rd, [rs1+imm]  64-bit load
	LD32 // LD32 rd, [rs1+imm]  32-bit zero-extending load
	LD16 // LD16 rd, [rs1+imm]  16-bit zero-extending load
	LD8  // LD8  rd, [rs1+imm]  8-bit zero-extending load
	ST   // ST   [rs1+imm], rs2 64-bit store
	ST32 // ST32 [rs1+imm], rs2 32-bit store
	ST16 // ST16 [rs1+imm], rs2 16-bit store
	ST8  // ST8  [rs1+imm], rs2 8-bit store
	PUSH // PUSH rs1            SP -= 8; [SP] = rs1
	POP  // POP  rd             rd = [SP]; SP += 8
	LEA  // LEA  rd, [rs1+imm]  rd = rs1 + imm (address arithmetic)

	// Integer arithmetic.
	ADD  // ADD  rd, rs1, rs2
	ADDI // ADDI rd, rs1, imm
	SUB  // SUB  rd, rs1, rs2
	SUBI // SUBI rd, rs1, imm
	MUL  // MUL  rd, rs1, rs2   low 64 bits of unsigned product
	IMUL // IMUL rd, rs1, rs2   low 64 bits of signed product
	DIV  // DIV  rd, rs1, rs2   unsigned quotient (rs2 == 0 faults)
	MOD  // MOD  rd, rs1, rs2   unsigned remainder (rs2 == 0 faults)
	NEG  // NEG  rd, rs1
	INC  // INC  rd
	DEC  // DEC  rd

	// Bitwise logic.
	AND  // AND  rd, rs1, rs2
	ANDI // ANDI rd, rs1, imm
	OR   // OR   rd, rs1, rs2
	ORI  // ORI  rd, rs1, imm
	XOR  // XOR  rd, rs1, rs2
	XORI // XORI rd, rs1, imm
	NOT  // NOT  rd, rs1

	// Shifts and rotates (the heart of the RSX tag set).
	SHL  // SHL  rd, rs1, rs2   logical shift left
	SHLI // SHLI rd, rs1, imm
	SHR  // SHR  rd, rs1, rs2   logical shift right
	SHRI // SHRI rd, rs1, imm
	SAR  // SAR  rd, rs1, rs2   arithmetic shift right
	SARI // SARI rd, rs1, imm
	ROL  // ROL  rd, rs1, rs2   rotate left
	ROLI // ROLI rd, rs1, imm
	ROR  // ROR  rd, rs1, rs2   rotate right
	RORI // RORI rd, rs1, imm
	// 32-bit rotates (x86 "rol/ror r32"): rotate the low 32 bits of rs1 and
	// zero-extend. Compilers emit these heavily in SHA-2 code.
	ROL32I // ROL32I rd, rs1, imm
	ROR32I // ROR32I rd, rs1, imm

	// Compare and test (set flags only).
	CMP  // CMP  rs1, rs2
	CMPI // CMPI rs1, imm
	TEST // TEST rs1, rs2       flags from rs1 & rs2

	// Control flow. Branch targets are instruction indices (Imm).
	JMP  // JMP  target
	JE   // JE   target          ZF == 1
	JNE  // JNE  target          ZF == 0
	JL   // JL   target          signed less
	JLE  // JLE  target          signed less-or-equal
	JG   // JG   target          signed greater
	JGE  // JGE  target          signed greater-or-equal
	JB   // JB   target          unsigned below
	JBE  // JBE  target          unsigned below-or-equal
	JA   // JA   target          unsigned above
	JAE  // JAE  target          unsigned above-or-equal
	CALL // CALL target         push return index, jump
	RET  // RET                 pop return index, jump

	// Miscellaneous.
	NOP
	HALT // stop the hardware context

	numOps // sentinel; must remain last
)

// NumOps is the number of defined opcodes including OpInvalid. Exposed so
// histogram consumers (internal/trace) can size dense arrays.
const NumOps = int(numOps)

// opNames is read-only after init.
var opNames = [numOps]string{
	OpInvalid: "INVALID",
	MOV:       "MOV", MOVI: "MOVI",
	LD: "LD", LD32: "LD32", LD16: "LD16", LD8: "LD8",
	ST: "ST", ST32: "ST32", ST16: "ST16", ST8: "ST8",
	PUSH: "PUSH", POP: "POP", LEA: "LEA",
	ADD: "ADD", ADDI: "ADDI", SUB: "SUB", SUBI: "SUBI",
	MUL: "MUL", IMUL: "IMUL", DIV: "DIV", MOD: "MOD",
	NEG: "NEG", INC: "INC", DEC: "DEC",
	AND: "AND", ANDI: "ANDI", OR: "OR", ORI: "ORI",
	XOR: "XOR", XORI: "XORI", NOT: "NOT",
	SHL: "SHL", SHLI: "SHLI", SHR: "SHR", SHRI: "SHRI",
	SAR: "SAR", SARI: "SARI",
	ROL: "ROL", ROLI: "ROLI", ROR: "ROR", RORI: "RORI",
	ROL32I: "ROL32I", ROR32I: "ROR32I",
	CMP: "CMP", CMPI: "CMPI", TEST: "TEST",
	JMP: "JMP", JE: "JE", JNE: "JNE", JL: "JL", JLE: "JLE",
	JG: "JG", JGE: "JGE", JB: "JB", JBE: "JBE", JA: "JA", JAE: "JAE",
	CALL: "CALL", RET: "RET",
	NOP: "NOP", HALT: "HALT",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
//
//cryptojack:hotpath
func (o Op) Valid() bool {
	return o > OpInvalid && o < numOps
}

// Class is a bitmask of microarchitectural classes an opcode belongs to.
// The decoder's programmable tag table (internal/microcode) selects opcodes
// by class or individually.
type Class uint16

const (
	ClassNone   Class = 0
	ClassRotate Class = 1 << iota // ROL/ROR families
	ClassShift                    // SHL/SHR/SAR families
	ClassXor                      // XOR families
	ClassOr                       // OR families
	ClassAnd                      // AND families
	ClassLoad                     // memory loads (incl. POP)
	ClassStore                    // memory stores (incl. PUSH)
	ClassBranch                   // control transfers
	ClassArith                    // integer add/sub/mul/div
	ClassMove                     // register/immediate moves
	ClassMulDiv                   // long-latency integer ops
)

// opClasses is read-only after init.
var opClasses = [numOps]Class{
	MOV: ClassMove, MOVI: ClassMove, LEA: ClassMove,
	LD: ClassLoad, LD32: ClassLoad, LD16: ClassLoad, LD8: ClassLoad,
	ST: ClassStore, ST32: ClassStore, ST16: ClassStore, ST8: ClassStore,
	PUSH: ClassStore, POP: ClassLoad,
	ADD: ClassArith, ADDI: ClassArith, SUB: ClassArith, SUBI: ClassArith,
	MUL: ClassArith | ClassMulDiv, IMUL: ClassArith | ClassMulDiv,
	DIV: ClassArith | ClassMulDiv, MOD: ClassArith | ClassMulDiv,
	NEG: ClassArith, INC: ClassArith, DEC: ClassArith,
	AND: ClassAnd, ANDI: ClassAnd,
	OR: ClassOr, ORI: ClassOr,
	XOR: ClassXor, XORI: ClassXor,
	NOT: ClassNone,
	SHL: ClassShift, SHLI: ClassShift, SHR: ClassShift, SHRI: ClassShift,
	SAR: ClassShift, SARI: ClassShift,
	ROL: ClassRotate, ROLI: ClassRotate, ROR: ClassRotate, RORI: ClassRotate,
	ROL32I: ClassRotate, ROR32I: ClassRotate,
	CMP: ClassArith, CMPI: ClassArith, TEST: ClassAnd,
	JMP: ClassBranch, JE: ClassBranch, JNE: ClassBranch,
	JL: ClassBranch, JLE: ClassBranch, JG: ClassBranch, JGE: ClassBranch,
	JB: ClassBranch, JBE: ClassBranch, JA: ClassBranch, JAE: ClassBranch,
	CALL: ClassBranch, RET: ClassBranch,
}

// Classes returns the class bitmask for the opcode.
func (o Op) Classes() Class {
	if int(o) < len(opClasses) {
		return opClasses[o]
	}
	return ClassNone
}

// Is reports whether the opcode belongs to class c.
func (o Op) Is(c Class) bool { return o.Classes()&c != 0 }

// IsBranch reports whether the opcode transfers control.
func (o Op) IsBranch() bool { return o.Is(ClassBranch) }

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case JE, JNE, JL, JLE, JG, JGE, JB, JBE, JA, JAE:
		return true
	default:
		return false
	}
}

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool { return o.Is(ClassLoad | ClassStore) }

// AllOps returns every defined opcode, in declaration order. The slice is
// freshly allocated on each call.
func AllOps() []Op {
	ops := make([]Op, 0, NumOps-1)
	for o := OpInvalid + 1; o < numOps; o++ {
		ops = append(ops, o)
	}
	return ops
}
