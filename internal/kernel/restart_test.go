package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/isa"
	"darkarts/internal/mem"
)

// restartBase is where both sides of the restart differential load their
// program; at restartFreq a slice of 10 ns is one instruction, coarse
// enough that every budget is reachable despite float rounding.
const (
	restartBase = 0x100_0000
	restartFreq = 100_000_000
)

// newContextLoop is the restart loop ISAWorkload.RunSlice used before
// restarts reset the context in place: a fresh, re-validated
// cpu.NewContext on every halt. It is the reference the in-place reset must
// match bit for bit.
type newContextLoop struct {
	t    *testing.T
	ctx  *cpu.ArchContext
	prog *isa.Program
	m    *mem.Memory
}

func (r *newContextLoop) RunSlice(core *cpu.Core, d time.Duration) {
	budget := uint64(d.Seconds() * float64(restartFreq))
	core.LoadContext(r.ctx)
	for budget > 0 {
		ran := core.Run(budget)
		budget -= ran
		if !r.ctx.Halted {
			continue
		}
		if r.ctx.Fault != nil {
			return
		}
		ctx, err := cpu.NewContext(r.prog, r.m, restartBase)
		if err != nil {
			r.t.Fatal(err)
		}
		r.ctx = ctx
		core.LoadContext(r.ctx)
	}
}

func (r *newContextLoop) Done() bool { return r.ctx.Halted && r.ctx.Fault != nil }

// restartCPU is a one-core characterizing machine, so the per-op histogram
// is part of the comparison.
func restartCPU(t *testing.T, mode cpu.Mode) *cpu.CPU {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	cfg.Mode = mode
	cfg.Characterize = true
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sliceFor returns a slice duration whose instruction budget at
// restartFreq is exactly n.
func sliceFor(t *testing.T, n uint64) time.Duration {
	t.Helper()
	for d := time.Duration(10 * n); d < time.Duration(10*n+10); d++ {
		if uint64(d.Seconds()*float64(restartFreq)) == n {
			return d
		}
	}
	t.Fatalf("no slice duration yields a budget of %d instructions", n)
	return 0
}

// runLength counts the instructions prog retires from entry to HALT.
func runLength(t *testing.T, prog *isa.Program) uint64 {
	t.Helper()
	c := restartCPU(t, cpu.ModeFast)
	ctx, err := cpu.NewContext(prog, c.Memory(), restartBase)
	if err != nil {
		t.Fatal(err)
	}
	core := c.Core(0)
	core.LoadContext(ctx)
	var n uint64
	for !ctx.Halted {
		n += core.Run(1 << 20)
	}
	return n
}

// restartBudgets is the slice schedule for a program that halts after l
// instructions: slices that end exactly at HALT (from entry, after a
// partial run, and across several restarts), slices that end mid-run, and
// a deterministic pseudo-random tail spanning zero to several restarts.
func restartBudgets(l uint64) []uint64 {
	budgets := []uint64{l, 1, l - 1, 2 * l, l + 1, 3, l/2 + 1, 3 * l, l - 1, 1}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 40; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		budgets = append(budgets, 1+x%(3*l+1))
	}
	return budgets
}

// archState is everything a restart must reproduce: the architectural
// context, the program's data and stack bytes, and the core counters.
type archState struct {
	regs     [isa.NumRegs]uint64
	flags    cpu.Flags
	pc       int
	halted   bool
	fault    string
	region   []byte
	retired  uint64
	rsx      uint64
	cycles   uint64
	perOp    [isa.NumOps]uint64
	switched bool
}

func captureState(core *cpu.Core, ctx *cpu.ArchContext, m *mem.Memory, regionLen int) archState {
	s := archState{
		regs:   ctx.Regs,
		flags:  ctx.Flags,
		pc:     ctx.PC,
		halted: ctx.Halted,
		region: m.ReadBytes(restartBase, regionLen),
	}
	if ctx.Fault != nil {
		s.fault = ctx.Fault.Error()
	}
	bank := core.Counters()
	s.retired, s.rsx, s.cycles, s.perOp = bank.Retired(), bank.RSX(), bank.Cycles(), bank.Histogram()
	s.switched = core.Context() != ctx
	return s
}

func diffStates(got, want archState) string {
	switch {
	case got.switched || want.switched:
		return "core does not hold the workload's context"
	case got.regs != want.regs:
		return fmt.Sprintf("registers %v, want %v", got.regs, want.regs)
	case got.flags != want.flags:
		return fmt.Sprintf("flags %+v, want %+v", got.flags, want.flags)
	case got.pc != want.pc:
		return fmt.Sprintf("pc %d, want %d", got.pc, want.pc)
	case got.halted != want.halted || got.fault != want.fault:
		return fmt.Sprintf("halted=%v fault=%q, want halted=%v fault=%q", got.halted, got.fault, want.halted, want.fault)
	case !bytes.Equal(got.region, want.region):
		return "data/stack region bytes differ"
	case got.retired != want.retired || got.rsx != want.rsx || got.cycles != want.cycles:
		return fmt.Sprintf("retired/rsx/cycles %d/%d/%d, want %d/%d/%d",
			got.retired, got.rsx, got.cycles, want.retired, want.rsx, want.cycles)
	case got.perOp != want.perOp:
		return "per-op histogram differs"
	}
	return ""
}

// withBlockCount returns a copy of prog whose baked data sets the 8-byte
// block-count cell at off to n, so the kernel does real work (and updates
// its state in the data region) before halting. prog itself is untouched.
func withBlockCount(prog *isa.Program, off int64, n uint64) *isa.Program {
	cp := *prog
	size := prog.DataSize
	if int64(len(prog.Data)) > size {
		size = int64(len(prog.Data))
	}
	cp.Data = make([]byte, size)
	copy(cp.Data, prog.Data)
	binary.LittleEndian.PutUint64(cp.Data[off:], n)
	cp.Name = prog.Name + "-1blk"
	return &cp
}

// storeProbe stores into its data region (a counter seeded from the baked
// data, plus a loop result) and into a stack slot before halting. Without
// the data rewrite on restart the counter would climb run after run.
func storeProbe(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("store-probe")
	b.Ld(1, 28, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.St(28, 0, 1)
	b.Movi(2, 5)
	b.Label("loop")
	b.OpI(isa.ADDI, 3, 3, 7)
	b.OpI(isa.XORI, 4, 3, 0x55)
	b.OpI(isa.SUBI, 2, 2, 1)
	b.Cmpi(2, 0)
	b.Jcc(isa.JNE, "loop")
	b.St(28, 8, 4)
	b.Push(1)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog.Data = make([]byte, 16)
	binary.LittleEndian.PutUint64(prog.Data, 41)
	return prog
}

// faultProbe divides by zero after a few instructions.
func faultProbe(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("fault-probe")
	b.Movi(1, 9)
	b.Movi(2, 0)
	b.St(28, 0, 1)
	b.Op3(isa.DIV, 3, 1, 2)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog.Data = make([]byte, 8)
	return prog
}

// TestISAWorkloadRestartMatchesNewContext runs looping ISA workloads,
// which restart in place on every halt, against the reference loop that
// builds a fresh context per halt. After every slice the two machines must
// agree on registers, flags, PC, halt/fault state, the data and stack
// bytes, and the core counters, in both execution modes.
func TestISAWorkloadRestartMatchesNewContext(t *testing.T) {
	sha, shaLay := cryptoalg.BuildSHA256Program(4)
	kec, kecLay := cryptoalg.BuildKeccakHashProgram(4)
	aes, aesLay := cryptoalg.BuildAESProgram(make([]byte, 16), 4)
	bla, blaLay := cryptoalg.BuildBlake2bProgram(32, 4)
	progs := []*isa.Program{
		// Unbaked images: zero blocks, halt in 8–11 instructions.
		sha, kec, aes, bla,
		// The same kernels with one block baked in: real rounds that
		// rewrite their state in the data region before halting.
		withBlockCount(sha, shaLay.NBlk, 1),
		withBlockCount(kec, kecLay.NBlk, 1),
		withBlockCount(aes, aesLay.NBlk, 1),
		withBlockCount(bla, blaLay.NRec, 1),
		storeProbe(t),
		faultProbe(t),
	}
	for _, mode := range []cpu.Mode{cpu.ModeFast, cpu.ModeDetailed} {
		for _, prog := range progs {
			t.Run(fmt.Sprintf("%s/%v", prog.Name, mode), func(t *testing.T) {
				runRestartDifferential(t, prog, mode)
			})
		}
	}
}

func runRestartDifferential(t *testing.T, prog *isa.Program, mode cpu.Mode) {
	cpuA, cpuB := restartCPU(t, mode), restartCPU(t, mode)
	w, err := NewISAWorkload(prog, cpuA.Memory(), restartBase, restartFreq)
	if err != nil {
		t.Fatal(err)
	}
	w.Loop = true
	refCtx, err := cpu.NewContext(prog, cpuB.Memory(), restartBase)
	if err != nil {
		t.Fatal(err)
	}
	ref := &newContextLoop{t: t, ctx: refCtx, prog: prog, m: cpuB.Memory()}
	coreA, coreB := cpuA.Core(0), cpuB.Core(0)
	regionLen := int(cpu.RegionSize(prog)) - prog.Len()*isa.InstBytes

	l := runLength(t, prog)
	faults := false
	var total uint64
	for i, n := range restartBudgets(l) {
		total += n
		d := sliceFor(t, n)
		w.RunSlice(coreA, d)
		ref.RunSlice(coreB, d)
		got := captureState(coreA, w.Context(), cpuA.Memory(), regionLen)
		want := captureState(coreB, ref.ctx, cpuB.Memory(), regionLen)
		if diff := diffStates(got, want); diff != "" {
			t.Fatalf("slice %d (budget %d, halt after %d): %s", i, n, l, diff)
		}
		if w.Done() != ref.Done() {
			t.Fatalf("slice %d: Done() = %v, reference %v", i, w.Done(), ref.Done())
		}
		faults = faults || got.fault != ""
	}
	if faults {
		if !w.Done() {
			t.Fatal("faulted looping workload must be Done, not restarted")
		}
		if r := coreA.Counters().Retired(); r != l {
			t.Fatalf("faulted workload retired %d instructions, want exactly one run of %d", r, l)
		}
		return
	}
	if w.Done() {
		t.Fatal("looping workload reported Done without a fault")
	}
	if r := coreA.Counters().Retired(); r != total {
		t.Fatalf("retired %d instructions over the schedule, want the full budget %d", r, total)
	}
}

// TestValidationStillRejectsBadImages pins that validation moved into the
// load rather than vanished: the constructor of a looping workload rejects
// malformed images with the same error a fresh context reports.
func TestValidationStillRejectsBadImages(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  isa.Inst
		what string
	}{
		{"bad-branch", isa.Inst{Op: isa.JMP, Imm: 7}, "branch target out of range"},
		{"bad-reg", isa.Inst{Op: isa.MOVI, Rd: isa.NumRegs}, "register out of range"},
	} {
		prog := &isa.Program{Name: tc.name, Code: []isa.Inst{{Op: isa.NOP}, tc.bad, {Op: isa.HALT}}}
		want := fmt.Sprintf("new context: program %q: instruction 1 (%s): %s", tc.name, tc.bad, tc.what)
		c := restartCPU(t, cpu.ModeFast)
		if _, err := cpu.NewContext(prog, c.Memory(), restartBase); err == nil || err.Error() != want {
			t.Errorf("NewContext(%s) error = %v, want %q", tc.name, err, want)
		}
		if _, err := NewISAWorkload(prog, c.Memory(), restartBase, restartFreq); err == nil || err.Error() != want {
			t.Errorf("NewISAWorkload(%s) error = %v, want %q", tc.name, err, want)
		}
	}
}

// TestISAWorkloadRestartDoesNotAllocate pins the in-place restart: a
// looping program that halts many times per slice costs no allocations.
func TestISAWorkloadRestartDoesNotAllocate(t *testing.T) {
	sha, _ := cryptoalg.BuildSHA256Program(4)
	c := restartCPU(t, cpu.ModeFast)
	w, err := NewISAWorkload(sha, c.Memory(), restartBase, restartFreq)
	if err != nil {
		t.Fatal(err)
	}
	w.Loop = true
	core := c.Core(0)
	d := sliceFor(t, 10_000)
	w.RunSlice(core, d) // warm the block cache
	if allocs := testing.AllocsPerRun(20, func() { w.RunSlice(core, d) }); allocs != 0 {
		t.Fatalf("restarting slice allocates %.1f objects, want 0", allocs)
	}
}

// TestISAWorkloadRunSlicesMatchesRunSlice: RunSlices(core, d, n) is n
// RunSlice calls, before the first HALT (executed) and after it
// (replayed), down to the block statistics, whose block splits fall at
// every slice boundary, and the context left loaded on a core another
// task used in between.
func TestISAWorkloadRunSlicesMatchesRunSlice(t *testing.T) {
	kf, _ := cryptoalg.BuildKeccakFProgram()
	d := sliceFor(t, 200)
	var ws [2]*ISAWorkload
	var cs [2]*cpu.CPU
	for i := range ws {
		cs[i] = restartCPU(t, cpu.ModeFast)
		w, err := NewISAWorkload(kf, cs[i].Memory(), restartBase, restartFreq)
		if err != nil {
			t.Fatal(err)
		}
		w.Loop = true
		ws[i] = w
	}
	for _, n := range []int{1, 7, 30, 1, 50, 200, 3} {
		for _, c := range cs {
			c.Core(0).LoadContext(&cpu.ArchContext{Halted: true})
		}
		ws[0].RunSlices(cs[0].Core(0), d, n)
		for i := 0; i < n; i++ {
			ws[1].RunSlice(cs[1].Core(0), d)
		}
		got, want := cs[0].Core(0), cs[1].Core(0)
		size := int(cpu.RegionSize(kf))
		if diff := diffStates(captureState(got, ws[0].Context(), cs[0].Memory(), size),
			captureState(want, ws[1].Context(), cs[1].Memory(), size)); diff != "" {
			t.Fatalf("after RunSlices(%d): %s", n, diff)
		}
		if g, w := got.BlockCacheStats(), want.BlockCacheStats(); g != w {
			t.Fatalf("after RunSlices(%d): block statistics %+v, RunSlice %+v", n, g, w)
		}
	}
	if !ws[0].replay.Active() || ws[0].Context().Halted {
		t.Fatal("the workload is not replaying; the replayed path went unexercised")
	}
}

// TestISAWorkloadRunSlicesDoesNotAllocate pins the batched replay path
// fast-forward takes: many replayed slices in one call allocate nothing.
func TestISAWorkloadRunSlicesDoesNotAllocate(t *testing.T) {
	kf, _ := cryptoalg.BuildKeccakFProgram()
	c := restartCPU(t, cpu.ModeFast)
	w, err := NewISAWorkload(kf, c.Memory(), restartBase, restartFreq)
	if err != nil {
		t.Fatal(err)
	}
	w.Loop = true
	core := c.Core(0)
	d := sliceFor(t, 200)
	w.RunSlices(core, d, 200) // record, and decode every entry a 200 slice reaches
	if !w.replay.Active() {
		t.Fatal("workload is not replaying")
	}
	if allocs := testing.AllocsPerRun(100, func() { w.RunSlices(core, d, 50) }); allocs != 0 {
		t.Fatalf("batched replayed slices allocate %.1f objects, want 0", allocs)
	}
}
