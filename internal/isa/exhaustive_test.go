// Opcode-table completeness: every opcode has a mnemonic, every opcode is
// either classified or on the explicit no-class list, and the RSX/RSXO
// tag tables decide every opcode exactly as the class masks say. A new
// opcode that misses a table fails here on the same commit that adds it.
// No static check covers switches over Op; each one carries a default.
package isa_test

import (
	"strings"
	"testing"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// unclassified is the closed set of opcodes deliberately carrying no
// microarchitectural class: NOT is pure logic outside the tag families,
// NOP and HALT touch no data at all. Growing this list is a deliberate
// act, not a default.
var unclassified = map[isa.Op]bool{
	isa.NOT:  true,
	isa.NOP:  true,
	isa.HALT: true,
}

func TestEveryOpcodeNamed(t *testing.T) {
	seen := map[string]isa.Op{}
	for _, op := range isa.AllOps() {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "Op(") {
			t.Errorf("opcode %d has no name-table entry (String() = %q)", uint8(op), name)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share the mnemonic %q", uint8(prev), uint8(op), name)
		}
		seen[name] = op
	}
	if got := isa.OpInvalid.String(); got != "INVALID" {
		t.Errorf("OpInvalid.String() = %q, want INVALID", got)
	}
}

func TestEveryOpcodeClassified(t *testing.T) {
	for _, op := range isa.AllOps() {
		classes := op.Classes()
		switch {
		case classes == isa.ClassNone && !unclassified[op]:
			t.Errorf("opcode %s has no classes and is not on the unclassified list: the class table misses it", op)
		case classes != isa.ClassNone && unclassified[op]:
			t.Errorf("opcode %s is on the unclassified list but has classes %#x", op, uint16(classes))
		}
	}
}

// TestEveryOpcodeAttributed pins the static attribute table (attr.go) to
// the class masks and the core.go interpreter semantics for the full
// opcode space, so a new opcode cannot ship without attributes:
//
//   - ReadsFlags exactly for conditional branches;
//   - WritesFlags exactly for the ALU families core.go routes through
//     addFlags/subFlags/logicFlags (arith, logic incl. NOT, shifts,
//     rotates, compares);
//   - Mem mirrors ClassLoad/ClassStore, plus the two branch opcodes that
//     move data through the stack (CALL stores the return index, RET
//     loads it);
//   - RSX agrees with the default firmware tag-set classes.
func TestEveryOpcodeAttributed(t *testing.T) {
	for _, op := range isa.AllOps() {
		a := op.Attr()

		if want := op.IsCondBranch(); a.ReadsFlags != want {
			t.Errorf("%s: ReadsFlags = %v, want %v (IsCondBranch)", op, a.ReadsFlags, want)
		}

		wantWrites := op.Is(isa.ClassArith|isa.ClassAnd|isa.ClassOr|isa.ClassXor|isa.ClassShift|isa.ClassRotate) || op == isa.NOT
		if a.WritesFlags != wantWrites {
			t.Errorf("%s: WritesFlags = %v, want %v (ALU families + NOT)", op, a.WritesFlags, wantWrites)
		}

		wantMem := isa.MemNone
		switch {
		case op.Is(isa.ClassLoad) || op == isa.RET:
			wantMem = isa.MemLoad
		case op.Is(isa.ClassStore) || op == isa.CALL:
			wantMem = isa.MemStore
		}
		if a.Mem != wantMem {
			t.Errorf("%s: Mem = %d, want %d", op, a.Mem, wantMem)
		}

		if want := op.Is(isa.ClassRotate | isa.ClassShift | isa.ClassXor); a.RSX != want {
			t.Errorf("%s: RSX = %v, want %v (class masks)", op, a.RSX, want)
		}

		if want := op == isa.JB || op == isa.JBE || op == isa.JA || op == isa.JAE; op.IsUnsignedCondBranch() != want {
			t.Errorf("%s: IsUnsignedCondBranch = %v, want %v", op, op.IsUnsignedCondBranch(), want)
		}
	}
	if a := isa.OpInvalid.Attr(); a != (isa.OpAttr{}) {
		t.Errorf("OpInvalid.Attr() = %+v, want the zero OpAttr", a)
	}
	if a := isa.Op(255).Attr(); a != (isa.OpAttr{}) {
		t.Errorf("out-of-range Attr() = %+v, want the zero OpAttr", a)
	}
}

// TestRSXClassificationCoversEveryOpcode pins the firmware tag tables to
// the class masks for the full opcode space: RSX tags exactly the
// rotate/shift/xor families, RSXO additionally the or family, and the
// reserved OpInvalid is tagged by neither.
func TestRSXClassificationCoversEveryOpcode(t *testing.T) {
	rsx, rsxo := microcode.RSX(), microcode.RSXO()
	for _, op := range isa.AllOps() {
		wantRSX := op.Is(isa.ClassRotate | isa.ClassShift | isa.ClassXor)
		if got := rsx.Tagged(op); got != wantRSX {
			t.Errorf("RSX.Tagged(%s) = %v, want %v", op, got, wantRSX)
		}
		wantRSXO := wantRSX || op.Is(isa.ClassOr)
		if got := rsxo.Tagged(op); got != wantRSXO {
			t.Errorf("RSXO.Tagged(%s) = %v, want %v", op, got, wantRSXO)
		}
	}
	if rsx.Tagged(isa.OpInvalid) || rsxo.Tagged(isa.OpInvalid) {
		t.Error("the reserved OpInvalid opcode must never be tagged")
	}
}
