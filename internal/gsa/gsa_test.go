package gsa_test

import (
	"sort"
	"testing"

	"darkarts/internal/gsa"
	"darkarts/internal/isa"
)

// diamond builds the classic if/else shape:
//
//	  b0 (entry, CMPI+JE)
//	 /  \
//	b1   b2
//	 \  /
//	  b3 (HALT)
func diamond(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("diamond")
	b.Movi(isa.R0, 1)
	b.Cmpi(isa.R0, 0)
	b.Jcc(isa.JE, "else")
	b.Movi(isa.R1, 10)
	b.Jmp("join")
	b.Label("else")
	b.Movi(isa.R1, 20)
	b.Label("join")
	b.Halt()
	return b.MustBuild()
}

func TestCFGDiamond(t *testing.T) {
	funcs := gsa.Funcs(diamond(t))
	if len(funcs) != 1 {
		t.Fatalf("got %d funcs, want 1", len(funcs))
	}
	f := funcs[0]
	if len(f.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4: %+v", len(f.Blocks), f.Blocks)
	}
	// Blocks are sorted by start pc: entry, then-arm, else-arm, join.
	wantSuccs := [][]int{{2, 1}, {3}, {3}, nil}
	for i, want := range wantSuccs {
		got := append([]int(nil), f.Blocks[i].Succs...)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("block %d succs = %v, want %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("block %d succs = %v, want %v", i, got, want)
			}
		}
	}
	if len(f.Blocks[3].Preds) != 2 {
		t.Errorf("join block preds = %v, want 2 preds", f.Blocks[3].Preds)
	}
	if f.Loops != nil {
		t.Errorf("diamond has no loops, got %d", len(f.Loops))
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := gsa.Funcs(diamond(t))[0]
	// Entry dominates everything; neither arm dominates the join.
	for b := 0; b < 4; b++ {
		if !f.Dominates(0, b) {
			t.Errorf("entry should dominate block %d", b)
		}
	}
	if f.Dominates(1, 3) || f.Dominates(2, 3) {
		t.Error("neither arm of the diamond may dominate the join")
	}
	if got := f.Idom(3); got != 0 {
		t.Errorf("idom(join) = %d, want 0 (entry)", got)
	}
}

// nestedLoops builds a counted two-level nest:
//
//	MOVI r0, 0
//	outer: MOVI r1, 0
//	inner: XOR/ROL body; ADDI r1; CMPI r1,5; JNE inner
//	ADDI r0; CMPI r0,3; JNE outer
//	HALT
func nestedLoops(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("nest")
	b.Movi(isa.R0, 0)
	b.Label("outer")
	b.Movi(isa.R1, 0)
	b.Label("inner")
	b.Op3(isa.XOR, isa.R2, isa.R2, isa.R3)
	b.OpI(isa.ROLI, isa.R2, isa.R2, 13)
	b.OpI(isa.ADDI, isa.R1, isa.R1, 1)
	b.Cmpi(isa.R1, 5)
	b.Jcc(isa.JNE, "inner")
	b.OpI(isa.ADDI, isa.R0, isa.R0, 1)
	b.Cmpi(isa.R0, 3)
	b.Jcc(isa.JNE, "outer")
	b.Halt()
	return b.MustBuild()
}

func TestLoopNestingAndTripBounds(t *testing.T) {
	p := nestedLoops(t)
	f := gsa.Funcs(p)[0]
	if len(f.Loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(f.Loops))
	}
	outer, inner := f.Loops[0], f.Loops[1]
	if outer.HeadPC > inner.HeadPC {
		outer, inner = inner, outer
	}
	if outer.HeadPC != p.Symbols["outer"] || inner.HeadPC != p.Symbols["inner"] {
		t.Fatalf("loop heads %d/%d, want %d/%d", outer.HeadPC, inner.HeadPC, p.Symbols["outer"], p.Symbols["inner"])
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("depths outer=%d inner=%d, want 1/2", outer.Depth, inner.Depth)
	}
	if outer.TripBound != 3 || inner.TripBound != 5 {
		t.Errorf("trip bounds outer=%d inner=%d, want 3/5", outer.TripBound, inner.TripBound)
	}
	// The inner body's blocks are a subset of the outer body's.
	for _, blk := range inner.Blocks {
		found := false
		for _, ob := range outer.Blocks {
			if ob == blk {
				found = true
			}
		}
		if !found {
			t.Errorf("inner block %d not contained in outer body %v", blk, outer.Blocks)
		}
	}
}

// powLoop emits the mining shape: an RSX-dense body behind a CALL, an
// unsigned target check exiting the loop, and a nonce cell updated in
// memory. benign=true swaps the unsigned exit for a counted JNE loop with
// a register counter — same instruction mass, no PoW structure.
func powLoop(t *testing.T, benign bool) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("fixture")
	if benign {
		b.Movi(isa.R5, 0)
	}
	b.Label("search")
	if !benign {
		// Nonce cell: load, bump, store back.
		b.Ld(isa.R1, isa.R28, 0)
		b.OpI(isa.ADDI, isa.R1, isa.R1, 1)
		b.St(isa.R28, 0, isa.R1)
	}
	b.Call("mix")
	if benign {
		b.OpI(isa.ADDI, isa.R5, isa.R5, 1)
		b.Cmpi(isa.R5, 1000)
		b.Jcc(isa.JNE, "search")
		b.Halt()
	} else {
		// Target check: hash below target exits the search.
		b.Ld(isa.R2, isa.R28, 8)
		b.Cmp(isa.R0, isa.R2)
		b.Jcc(isa.JB, "found")
		b.Jmp("search")
		b.Label("found")
		b.Halt()
	}
	b.Label("mix")
	for i := 0; i < 24; i++ {
		b.Op3(isa.XOR, isa.R0, isa.R0, isa.R3)
		b.OpI(isa.ROLI, isa.R0, isa.R0, int64(1+i%31))
		b.Op3(isa.ADD, isa.R0, isa.R0, isa.R4)
	}
	b.Ret()
	return b.MustBuild()
}

func TestPoWLoopDetection(t *testing.T) {
	mine := gsa.Analyze(powLoop(t, false))
	ben := gsa.Analyze(powLoop(t, true))
	if mine.PoWLoops != 1 {
		t.Errorf("mining fixture: PoWLoops = %d, want 1", mine.PoWLoops)
	}
	if ben.PoWLoops != 0 {
		t.Errorf("benign fixture: PoWLoops = %d, want 0", ben.PoWLoops)
	}
	if !mine.Flagged() {
		t.Errorf("mining fixture not flagged: risk %.3f < %v", mine.RiskScore, gsa.RiskFlagThreshold)
	}
	if ben.Flagged() {
		t.Errorf("benign fixture flagged: risk %.3f", ben.RiskScore)
	}
	// Same crypto mass, so the gap is exactly the structural bonus.
	if mine.RiskScore <= ben.RiskScore+1.5 {
		t.Errorf("PoW bonus too small: mining %.3f vs benign %.3f", mine.RiskScore, ben.RiskScore)
	}
	// The callee's mass must be folded into the search loop.
	if len(mine.HotLoops) == 0 || mine.HotLoops[0].Insts < 72 {
		t.Errorf("search loop missing callee mass: %+v", mine.HotLoops)
	}
	// A data-dependent search derives no trip bound.
	if mine.HotLoops[0].TripBound != 0 {
		t.Errorf("mining search loop has trip bound %d, want 0", mine.HotLoops[0].TripBound)
	}
}

func TestIdiomCounts(t *testing.T) {
	p := powLoop(t, false)
	prof := gsa.Analyze(p)
	if len(prof.HotLoops) == 0 {
		t.Fatal("no loops found")
	}
	top := prof.HotLoops[0]
	// The mix subroutine is one long XOR/ROL/ADD run: at least one chain,
	// inherited into the calling loop.
	if top.Chains == 0 {
		t.Errorf("no mixing chains attributed to the search loop: %+v", top)
	}
	if top.Density < 0.30 {
		t.Errorf("search loop density %.3f, want ≥ 0.30 (2 of 3 body ops are RSX)", top.Density)
	}
}

func TestLoopFreeProgram(t *testing.T) {
	b := isa.NewBuilder("straight")
	b.Op3(isa.XOR, isa.R0, isa.R0, isa.R1)
	b.OpI(isa.ROLI, isa.R0, isa.R0, 7)
	b.Halt()
	prof := gsa.Analyze(b.MustBuild())
	if prof.Loops != 0 || len(prof.HotLoops) != 0 {
		t.Fatalf("straight-line program reported loops: %+v", prof)
	}
	// Falls back to whole-image density; never flagged.
	if prof.RiskScore != prof.RSXDensity || prof.Flagged() {
		t.Errorf("loop-free risk = %.3f (density %.3f, flagged %v)", prof.RiskScore, prof.RSXDensity, prof.Flagged())
	}
}
