package isa

import (
	"fmt"
	"sort"
)

// Builder assembles a Program with symbolic labels. It is the "assembler"
// used by the hand-written crypto kernels in internal/cryptoalg and by the
// synthetic workload generators.
//
// Branch targets may reference labels that are defined later; they are
// resolved at Build time. Builder methods panic on misuse (unknown register
// etc.) only via Build's error return — the builder itself never panics.
type Builder struct {
	name   string
	code   []Inst
	labels map[string]int
	// fixups maps instruction index -> label for unresolved branch targets.
	fixups map[int]string
	errs   []error
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

// Label defines a label at the current position. Redefinition is an error
// reported by Build.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("label %q redefined", name))
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in Inst) *Builder {
	b.code = append(b.code, in)
	return b
}

// Op3 emits a three-register-operand instruction: rd = rs1 <op> rs2.
func (b *Builder) Op3(op Op, rd, rs1, rs2 Reg) *Builder {
	return b.Emit(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpI emits a register-immediate instruction: rd = rs1 <op> imm.
func (b *Builder) OpI(op Op, rd, rs1 Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Mov emits rd = rs.
func (b *Builder) Mov(rd, rs Reg) *Builder { return b.Emit(Inst{Op: MOV, Rd: rd, Rs1: rs}) }

// Movi emits rd = imm.
func (b *Builder) Movi(rd Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: MOVI, Rd: rd, Imm: imm})
}

// Ld emits rd = mem64[base+off].
func (b *Builder) Ld(rd, base Reg, off int64) *Builder {
	return b.Emit(Inst{Op: LD, Rd: rd, Rs1: base, Imm: off})
}

// Ld8 emits rd = zeroext(mem8[base+off]).
func (b *Builder) Ld8(rd, base Reg, off int64) *Builder {
	return b.Emit(Inst{Op: LD8, Rd: rd, Rs1: base, Imm: off})
}

// Ld32 emits rd = zeroext(mem32[base+off]).
func (b *Builder) Ld32(rd, base Reg, off int64) *Builder {
	return b.Emit(Inst{Op: LD32, Rd: rd, Rs1: base, Imm: off})
}

// St emits mem64[base+off] = rs.
func (b *Builder) St(base Reg, off int64, rs Reg) *Builder {
	return b.Emit(Inst{Op: ST, Rs1: base, Imm: off, Rs2: rs})
}

// St32 emits mem32[base+off] = rs.
func (b *Builder) St32(base Reg, off int64, rs Reg) *Builder {
	return b.Emit(Inst{Op: ST32, Rs1: base, Imm: off, Rs2: rs})
}

// Push emits PUSH rs.
func (b *Builder) Push(rs Reg) *Builder { return b.Emit(Inst{Op: PUSH, Rs1: rs}) }

// Pop emits POP rd.
func (b *Builder) Pop(rd Reg) *Builder { return b.Emit(Inst{Op: POP, Rd: rd}) }

// Cmp emits CMP rs1, rs2.
func (b *Builder) Cmp(rs1, rs2 Reg) *Builder { return b.Emit(Inst{Op: CMP, Rs1: rs1, Rs2: rs2}) }

// Cmpi emits CMPI rs1, imm.
func (b *Builder) Cmpi(rs1 Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: CMPI, Rs1: rs1, Imm: imm})
}

// Jmp emits an unconditional jump to a label.
func (b *Builder) Jmp(label string) *Builder { return b.branch(JMP, label) }

// Jcc emits a conditional jump to a label.
func (b *Builder) Jcc(op Op, label string) *Builder {
	if !op.IsCondBranch() {
		b.errs = append(b.errs, fmt.Errorf("Jcc: %s is not a conditional branch", op))
		return b
	}
	return b.branch(op, label)
}

// Call emits CALL label.
func (b *Builder) Call(label string) *Builder { return b.branch(CALL, label) }

// Ret emits RET.
func (b *Builder) Ret() *Builder { return b.Emit(Inst{Op: RET}) }

// Halt emits HALT.
func (b *Builder) Halt() *Builder { return b.Emit(Inst{Op: HALT}) }

// Nop emits NOP.
func (b *Builder) Nop() *Builder { return b.Emit(Inst{Op: NOP}) }

func (b *Builder) branch(op Op, label string) *Builder {
	idx := len(b.code)
	b.code = append(b.code, Inst{Op: op})
	b.fixups[idx] = label
	return b
}

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("assemble %q: %w", b.name, b.errs[0])
	}
	code := make([]Inst, len(b.code))
	copy(code, b.code)

	// Deterministic fixup order for reproducible error messages.
	idxs := make([]int, 0, len(b.fixups))
	for idx := range b.fixups {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		label := b.fixups[idx]
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("assemble %q: undefined label %q at instruction %d", b.name, label, idx)
		}
		code[idx].Imm = int64(target)
	}

	// Copy the label table in sorted order: the copy itself is
	// order-insensitive, but keeping the sweep deterministic lets the
	// determinism analyzer vouch for the whole build path.
	symbols := make(map[string]int, len(b.labels))
	labelNames := make([]string, 0, len(b.labels))
	for k := range b.labels {
		labelNames = append(labelNames, k)
	}
	sort.Strings(labelNames)
	for _, k := range labelNames {
		symbols[k] = b.labels[k]
	}
	p := &Program{Name: b.name, Code: code, Symbols: symbols}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for static program construction in tests and kernels
// where assembly errors are programming bugs.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
