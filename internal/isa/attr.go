package isa

// Static per-opcode attribute table.
//
// Classes (op.go) answer "which microarchitectural family is this op in" —
// the decoder's programmable tag table selects by class. Attributes answer
// the finer-grained questions static analysis asks about one instruction in
// isolation: does it read or write the flags register, which side of memory
// does it touch, and is it in the RSX family the default firmware tags.
// internal/gsa's CFG/loop/scoring passes consume this table; the runtime
// twin in exhaustive_test.go proves every opcode carries attributes
// consistent with its class masks, so a new opcode cannot ship without
// both.

// MemClass says which side of data memory an opcode touches.
type MemClass uint8

// Memory classes.
const (
	MemNone MemClass = iota
	MemLoad
	MemStore
)

// OpAttr is the static attribute record of one opcode.
type OpAttr struct {
	// ReadsFlags marks instructions whose behaviour depends on the flags
	// register (the conditional branches).
	ReadsFlags bool
	// WritesFlags marks instructions that define the flags register
	// (arithmetic, logic, shifts/rotates, compares).
	WritesFlags bool
	// Mem is the data-memory side the opcode touches (PUSH/POP/CALL/RET
	// included: they move data through the stack).
	Mem MemClass
	// RSX marks the rotate/shift/xor family — the instructions the paper's
	// default firmware tag set counts toward the mining signature.
	RSX bool
}

// opAttrs is read-only after init.
var opAttrs = [numOps]OpAttr{
	MOV:  {},
	MOVI: {},
	LEA:  {},
	LD:   {Mem: MemLoad},
	LD32: {Mem: MemLoad},
	LD16: {Mem: MemLoad},
	LD8:  {Mem: MemLoad},
	ST:   {Mem: MemStore},
	ST32: {Mem: MemStore},
	ST16: {Mem: MemStore},
	ST8:  {Mem: MemStore},
	PUSH: {Mem: MemStore},
	POP:  {Mem: MemLoad},

	ADD:  {WritesFlags: true},
	ADDI: {WritesFlags: true},
	SUB:  {WritesFlags: true},
	SUBI: {WritesFlags: true},
	MUL:  {WritesFlags: true},
	IMUL: {WritesFlags: true},
	DIV:  {WritesFlags: true},
	MOD:  {WritesFlags: true},
	NEG:  {WritesFlags: true},
	INC:  {WritesFlags: true},
	DEC:  {WritesFlags: true},

	AND:  {WritesFlags: true},
	ANDI: {WritesFlags: true},
	OR:   {WritesFlags: true},
	ORI:  {WritesFlags: true},
	XOR:  {WritesFlags: true, RSX: true},
	XORI: {WritesFlags: true, RSX: true},
	NOT:  {WritesFlags: true},

	SHL:    {WritesFlags: true, RSX: true},
	SHLI:   {WritesFlags: true, RSX: true},
	SHR:    {WritesFlags: true, RSX: true},
	SHRI:   {WritesFlags: true, RSX: true},
	SAR:    {WritesFlags: true, RSX: true},
	SARI:   {WritesFlags: true, RSX: true},
	ROL:    {WritesFlags: true, RSX: true},
	ROLI:   {WritesFlags: true, RSX: true},
	ROR:    {WritesFlags: true, RSX: true},
	RORI:   {WritesFlags: true, RSX: true},
	ROL32I: {WritesFlags: true, RSX: true},
	ROR32I: {WritesFlags: true, RSX: true},

	CMP:  {WritesFlags: true},
	CMPI: {WritesFlags: true},
	TEST: {WritesFlags: true},

	JMP:  {},
	JE:   {ReadsFlags: true},
	JNE:  {ReadsFlags: true},
	JL:   {ReadsFlags: true},
	JLE:  {ReadsFlags: true},
	JG:   {ReadsFlags: true},
	JGE:  {ReadsFlags: true},
	JB:   {ReadsFlags: true},
	JBE:  {ReadsFlags: true},
	JA:   {ReadsFlags: true},
	JAE:  {ReadsFlags: true},
	CALL: {Mem: MemStore},
	RET:  {Mem: MemLoad},

	NOP:  {},
	HALT: {},
}

// Attr returns the opcode's static attribute record (the zero OpAttr for
// out-of-range values).
//
//cryptojack:hotpath
func (o Op) Attr() OpAttr {
	if int(o) < len(opAttrs) {
		return opAttrs[o]
	}
	return OpAttr{}
}

// IsUnsignedCondBranch reports whether the opcode is a conditional branch
// on an unsigned ordered comparison (below/above families). Proof-of-work
// target checks compare hashes as unsigned words, which makes these
// branches a static signal internal/gsa's idiom pass keys on.
func (o Op) IsUnsignedCondBranch() bool {
	switch o {
	case JB, JBE, JA, JAE:
		return true
	default:
		return false
	}
}
