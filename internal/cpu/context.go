package cpu

import (
	"fmt"

	"darkarts/internal/isa"
	"darkarts/internal/mem"
)

// Flags is the architectural condition-code state.
type Flags struct {
	Z bool // zero
	S bool // sign
	C bool // carry / unsigned borrow
	O bool // signed overflow
}

// ArchContext is the software-visible state of a hardware context: what the
// OS saves and restores on a context switch. The program and its memory
// region travel with the context.
type ArchContext struct {
	Regs  [isa.NumRegs]uint64
	Flags Flags
	PC    int
	Prog  *isa.Program
	// CodeBase is the modelled address of instruction 0 (I-cache indexing).
	CodeBase uint64
	Halted   bool
	// Fault records the first execution fault, if any (division by zero,
	// invalid opcode, PC out of range). A faulted context stays halted.
	Fault error
}

// ContextLayout describes a task's memory region; the loader uses it to
// place data, the stack, and the code image.
type ContextLayout struct {
	Base      uint64 // lowest address of the region
	DataSize  int64  // bytes of program data
	StackSize int64  // bytes of stack above the data
}

// DefaultStackSize is the stack allocation used by NewContext.
const DefaultStackSize = 64 << 10

// NewContext prepares a runnable context for prog inside the region starting
// at base. Program data (if any) is copied to base, the stack pointer is set
// to the top of the region, and by software convention R28 holds the data
// base address on entry. It is the only constructor of a runnable context,
// and it validates prog; restart loops then reuse the context via Reset.
func NewContext(prog *isa.Program, m *mem.Memory, base uint64) (*ArchContext, error) {
	if prog == nil {
		return nil, fmt.Errorf("new context: nil program")
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("new context: %w", err)
	}
	ctx := &ArchContext{}
	ctx.Reset(prog, m, base)
	return ctx, nil
}

// Reset reloads prog at base in place: it rewrites the program data at base
// and sets the context to exactly the value NewContext builds (entry PC,
// R28 and SP per the load convention, every other register and flag zero,
// Halted and Fault cleared). It does not validate and does not allocate;
// prog must be an image that NewContext has already accepted, which holds
// for any restart of the same load because program images are never
// mutated after construction.
func (ctx *ArchContext) Reset(prog *isa.Program, m *mem.Memory, base uint64) {
	dataSize := prog.DataSize
	if int64(len(prog.Data)) > dataSize {
		dataSize = int64(len(prog.Data))
	}
	if len(prog.Data) > 0 {
		m.WriteBytes(base, prog.Data)
	}
	top := base + uint64(dataSize) + DefaultStackSize
	*ctx = ArchContext{
		PC:       prog.Entry,
		Prog:     prog,
		CodeBase: top,
	}
	ctx.Regs[28] = base // data base pointer convention
	ctx.Regs[isa.SP] = top
}

// RegionSize returns the number of bytes NewContext reserves for a program:
// data + stack + code image.
func RegionSize(prog *isa.Program) uint64 {
	dataSize := prog.DataSize
	if int64(len(prog.Data)) > dataSize {
		dataSize = int64(len(prog.Data))
	}
	return uint64(dataSize) + DefaultStackSize + uint64(prog.Len()*isa.InstBytes)
}
