package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// bbOutcome is the full observable state compared by the block-cache
// differential tests: architecture (registers, flags, PC, halt/fault),
// every counter the defense reads, the core TLB counters, and the whole
// task region of memory plus the number of pages mapped.
type bbOutcome struct {
	regs      [isa.NumRegs]uint64
	flags     Flags
	pc        int
	halted    bool
	fault     string
	retired   uint64
	rsx       uint64
	cycles    uint64
	hist      [isa.NumOps]uint64
	mem       []byte
	pages     int
	tlbHits   uint64
	tlbMisses uint64
}

// engine selects which fast-mode tier runBB drives.
type engine int

const (
	engStep   engine = iota // per-instruction reference loop (NoBlockCache)
	engBlocks               // block cache (the default)
)

// bbBase is where runBB loads programs.
const bbBase = 0x100_0000

// runBB executes prog to completion in fast mode under the given engine,
// chopped into slices of the given size, applying step(machine,
// totalRetired) before each slice. A non-zero budget stops the run once
// that many instructions have retired (for programs that never halt).
func runBB(t *testing.T, prog *isa.Program, eng engine, slice, budget uint64,
	step func(*CPU, uint64)) bbOutcome {
	t.Helper()
	return runBBOn(t, prog, eng, nil, slice, budget, step)
}

// runBBOn is runBB on a machine wired to the given block store (nil = a
// store of its own).
func runBBOn(t *testing.T, prog *isa.Program, eng engine, store *SharedBlocks, slice, budget uint64,
	step func(*CPU, uint64)) bbOutcome {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Characterize = true
	cfg.NoBlockCache = eng == engStep
	cfg.SharedBlocks = store
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), bbBase)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	core.LoadContext(ctx)
	var total uint64
	for !ctx.Halted && (budget == 0 || total < budget) {
		if step != nil {
			step(machine, total)
		}
		want := slice
		if budget != 0 && budget-total < want {
			want = budget - total
		}
		n := core.Run(want)
		total += n
		if n == 0 && !ctx.Halted {
			t.Fatal("no progress")
		}
	}
	bank := core.Counters()
	out := bbOutcome{
		regs:    ctx.Regs,
		flags:   ctx.Flags,
		pc:      ctx.PC,
		halted:  ctx.Halted,
		retired: bank.Retired(),
		rsx:     bank.RSX(),
		cycles:  bank.Cycles(),
		hist:    bank.Histogram(),
		mem:     machine.Memory().ReadBytes(bbBase, int(RegionSize(prog))),
		pages:   machine.Memory().Pages(),
	}
	out.tlbHits, out.tlbMisses = core.TLBStats()
	if ctx.Fault != nil {
		out.fault = ctx.Fault.Error()
	}
	return out
}

func requireSameOutcome(t *testing.T, label string, a, b bbOutcome) {
	t.Helper()
	if a.regs != b.regs {
		t.Fatalf("%s: register state diverges", label)
	}
	if a.flags != b.flags {
		t.Fatalf("%s: flags diverge: %+v vs %+v", label, a.flags, b.flags)
	}
	if a.pc != b.pc {
		t.Fatalf("%s: PC %d vs %d", label, a.pc, b.pc)
	}
	if a.halted != b.halted || a.fault != b.fault {
		t.Fatalf("%s: halt/fault (%v,%q) vs (%v,%q)", label, a.halted, a.fault, b.halted, b.fault)
	}
	if a.retired != b.retired {
		t.Fatalf("%s: retired %d vs %d", label, a.retired, b.retired)
	}
	if a.rsx != b.rsx {
		t.Fatalf("%s: RSX %d vs %d", label, a.rsx, b.rsx)
	}
	if a.cycles != b.cycles {
		t.Fatalf("%s: cycles %d vs %d", label, a.cycles, b.cycles)
	}
	if a.hist != b.hist {
		t.Fatalf("%s: per-op histogram diverges", label)
	}
	if len(a.mem) != len(b.mem) {
		t.Fatalf("%s: compared %d vs %d bytes of memory", label, len(a.mem), len(b.mem))
	}
	for i := range a.mem {
		if a.mem[i] != b.mem[i] {
			t.Fatalf("%s: memory diverges at +%d", label, i)
		}
	}
	if a.pages != b.pages {
		t.Fatalf("%s: %d vs %d pages mapped", label, a.pages, b.pages)
	}
	if a.tlbHits != b.tlbHits || a.tlbMisses != b.tlbMisses {
		t.Fatalf("%s: TLB hits/misses %d/%d vs %d/%d", label, a.tlbHits, a.tlbMisses, b.tlbHits, b.tlbMisses)
	}
}

// TestDifferentialBlockCacheVsStep is the block-cache equivalence property
// test: over the fuzz corpus, the cached engine must be bit-identical to
// the per-instruction reference loop — registers, flags, memory and all
// counter values — both for whole-program runs and for tiny slices that
// split blocks at arbitrary points.
func TestDifferentialBlockCacheVsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(771))
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng)
		for _, slice := range []uint64{1 << 30, 7} {
			plain := runBB(t, prog, engStep, slice, 0, nil)
			cached := runBB(t, prog, engBlocks, slice, 0, nil)
			requireSameOutcome(t, fmt.Sprintf("%s/slice=%d", prog.Name, slice), cached, plain)
		}
	}
}

// TestBlockCacheFaultIdentity pins down the engines' agreement on the slow
// exits: a data-dependent divide fault mid-block and an out-of-range branch
// target must leave identical fault state, PC, and counters.
func TestBlockCacheFaultIdentity(t *testing.T) {
	divFault := func() *isa.Program {
		b := isa.NewBuilder("divfault")
		b.Movi(isa.R1, 100)
		b.Movi(isa.R2, 0)
		b.OpI(isa.XORI, isa.R3, isa.R1, 0x55) // tagged work before the fault
		b.Op3(isa.DIV, isa.R4, isa.R1, isa.R2)
		b.Halt()
		return b.MustBuild()
	}()
	retWild := func() *isa.Program {
		// RET with a bogus saved address: the only branch Validate cannot
		// range-check, so the PC bounds fault happens at run time.
		b := isa.NewBuilder("retwild")
		b.Movi(isa.R1, 1<<20)
		b.Push(isa.R1)
		b.Ret()
		b.Halt()
		return b.MustBuild()
	}()
	for _, prog := range []*isa.Program{divFault, retWild} {
		plain := runBB(t, prog, engStep, 1<<30, 0, nil)
		cached := runBB(t, prog, engBlocks, 1<<30, 0, nil)
		if cached.fault == "" {
			t.Fatalf("%s: expected a fault", prog.Name)
		}
		requireSameOutcome(t, prog.Name, cached, plain)
	}
}

// TestBlockCacheTagSwapInvalidation is the firmware-update property: a
// mid-run atomic tag-table swap must invalidate the cached pre-counts, and
// the cached engine must count RSX identically to the reference loop across
// the swap boundary.
func TestBlockCacheTagSwapInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(908))
	tables := []*microcode.TagTable{
		microcode.RSX(), microcode.RSXO(), microcode.RotateOnly(),
	}
	for trial := 0; trial < 10; trial++ {
		prog := randomProgram(rng)
		// Swap the table at fixed retired-instruction boundaries. Slices of
		// 13 instructions land the swaps inside blocks, so the invalidation
		// must take effect at the next Run call in both engines.
		swap := func(m *CPU, total uint64) {
			m.InstallTagTable(tables[(total/13)%uint64(len(tables))])
		}
		plain := runBB(t, prog, engStep, 13, 0, swap)
		cached := runBB(t, prog, engBlocks, 13, 0, swap)
		requireSameOutcome(t, prog.Name, cached, plain)
	}

	// And the invalidation itself must be observable: one swap, one
	// invalidation tick, and the pre-counts recomputed (different RSX totals
	// under the two tables for a rotate+shift loop).
	b := isa.NewBuilder("rot")
	b.Movi(isa.R12, 1_000_000)
	b.Label("loop")
	b.OpI(isa.ROLI, isa.R1, isa.R1, 1)
	b.OpI(isa.SHRI, isa.R2, isa.R1, 3)
	b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.JNE, "loop")
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	core.LoadContext(ctx)

	// Prologue MOVI + 60 five-instruction iterations.
	core.Run(301)
	rsxBefore := core.Counters().RSX()
	if rsxBefore != 120 { // ROLI + SHRI both tagged under RSX
		t.Fatalf("RSX before swap = %d, want 120", rsxBefore)
	}
	if inv := core.BlockCacheStats().Invalidations; inv != 0 {
		t.Fatalf("invalidations before swap = %d", inv)
	}
	machine.InstallTagTable(microcode.RotateOnly())
	core.Run(300) // 60 more iterations under the rotate-only table
	st := core.BlockCacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations after swap = %d, want 1", st.Invalidations)
	}
	if got := core.Counters().RSX() - rsxBefore; got != 60 { // only ROLI now
		t.Fatalf("RSX delta after swap = %d, want 60", got)
	}
}

// TestBlockCacheStats checks the cache's own accounting: a straight rerun of
// one loop is all hits after the first pass, and the length histogram's sum
// equals the instructions retired through the cache.
func TestBlockCacheStats(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Movi(isa.R12, 1000)
	b.Label("loop")
	b.OpI(isa.XORI, isa.R1, isa.R1, 0x9E)
	b.OpI(isa.ROLI, isa.R1, isa.R1, 7)
	b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.JNE, "loop")
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	core.LoadContext(ctx)
	for !ctx.Halted {
		core.Run(1 << 30)
	}
	st := core.BlockCacheStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("stats = %+v, want both hits and misses", st)
	}
	if st.Hits < st.Misses*100 {
		t.Fatalf("loop should be hit-dominated: %+v", st)
	}
	if st.LenSum != core.Counters().Retired() {
		t.Fatalf("LenSum %d != retired %d", st.LenSum, core.Counters().Retired())
	}
	var bucketTotal uint64
	for _, n := range st.LenCounts {
		bucketTotal += n
	}
	if bucketTotal != st.Hits+st.Misses {
		t.Fatalf("length histogram count %d != block executions %d", bucketTotal, st.Hits+st.Misses)
	}
}

// TestBlockCacheBranchIntoBlockMiddle pins the overlapping-block case: a
// branch targeting the interior of an already-cached block decodes a second
// (suffix) block and both execute correctly.
func TestBlockCacheBranchIntoBlockMiddle(t *testing.T) {
	// First pass runs A;B;C as one block; the back-edge then re-enters at B.
	b := isa.NewBuilder("midblock")
	b.Movi(isa.R12, 50)
	b.OpI(isa.ADDI, isa.R1, isa.R1, 1) // A
	b.Label("mid")
	b.OpI(isa.ADDI, isa.R2, isa.R2, 1) // B
	b.OpI(isa.XORI, isa.R3, isa.R2, 5) // C
	b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.JNE, "mid")
	b.Halt()
	prog := b.MustBuild()

	plain := runBB(t, prog, engStep, 1<<30, 0, nil)
	cached := runBB(t, prog, engBlocks, 1<<30, 0, nil)
	requireSameOutcome(t, prog.Name, cached, plain)
	if cached.regs[1] != 1 || cached.regs[2] != 50 {
		t.Fatalf("unexpected results r1=%d r2=%d", cached.regs[1], cached.regs[2])
	}
}

// observerLog records exact retirement order, for the bypass test.
type observerLog struct {
	ops []isa.Op
}

func (o *observerLog) Retired(core int, in isa.Inst) { o.ops = append(o.ops, in.Op) }

// TestBlockCacheObserverBypass: a core with a retirement observer attached
// must bypass the cache (exact per-instruction order) and leave the cache
// stats untouched.
func TestBlockCacheObserverBypass(t *testing.T) {
	b := isa.NewBuilder("observe")
	b.OpI(isa.ADDI, isa.R1, isa.R1, 1)
	b.OpI(isa.XORI, isa.R2, isa.R1, 3)
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	log := &observerLog{}
	core.SetObserver(log)
	core.LoadContext(ctx)
	core.Run(1 << 20)
	want := []isa.Op{isa.ADDI, isa.XORI, isa.HALT}
	if len(log.ops) != len(want) {
		t.Fatalf("observed %d retirements, want %d", len(log.ops), len(want))
	}
	for i, op := range want {
		if log.ops[i] != op {
			t.Fatalf("retirement %d = %v, want %v", i, log.ops[i], op)
		}
	}
	if st := core.BlockCacheStats(); st != (BBStats{}) {
		t.Fatalf("observer run touched the block cache: %+v", st)
	}
}

// TestTagTableGen checks the generation contract the cache keys on: nil is
// generation 0 and every constructed table gets a fresh non-zero value.
func TestTagTableGen(t *testing.T) {
	if g := (*microcode.TagTable)(nil).Gen(); g != 0 {
		t.Fatalf("nil table gen = %d", g)
	}
	seen := map[uint64]bool{0: true}
	for i := 0; i < 5; i++ {
		g := microcode.RSX().Gen()
		if seen[g] {
			t.Fatalf("duplicate generation %d", g)
		}
		seen[g] = true
	}
}

// TestBlockCacheSwapGranularity is the per-program invalidation property:
// after a tag-table swap, only programs that actually run under the new
// generation move to a new table — one invalidation tick and one re-decode
// each, with pre-counts correct under the new table — while a program that
// has not run since keeps its old table untouched.
func TestBlockCacheSwapGranularity(t *testing.T) {
	mkLoop := func(name string, iters int64) *isa.Program {
		b := isa.NewBuilder(name)
		b.Movi(isa.R12, iters)
		b.Label("loop")
		b.OpI(isa.ROLI, isa.R1, isa.R1, 1)
		b.OpI(isa.SHRI, isa.R2, isa.R1, 3)
		b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
		b.Cmpi(isa.R12, 0)
		b.Jcc(isa.JNE, "loop")
		b.Halt()
		return b.MustBuild()
	}
	progA := mkLoop("rotA", 20)
	progB := mkLoop("rotB", 20)

	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	runToHalt := func(prog *isa.Program, base uint64) {
		t.Helper()
		ctx, err := NewContext(prog, machine.Memory(), base)
		if err != nil {
			t.Fatal(err)
		}
		core.LoadContext(ctx)
		core.Run(1 << 20)
		if !ctx.Halted {
			t.Fatalf("%s did not halt", prog.Name)
		}
	}

	// Warm both programs under the initial table.
	runToHalt(progA, 0x100_0000)
	runToHalt(progB, 0x200_0000)
	warm := core.BlockCacheStats()
	if warm.Misses == 0 || warm.Invalidations != 0 {
		t.Fatalf("warm-up stats off: %+v", warm)
	}
	rsxWarm := core.Counters().RSX()
	// Prologue MOVI + 20 iterations of (ROLI+SHRI tagged) per program.
	if rsxWarm != 2*2*20 {
		t.Fatalf("warm RSX = %d, want 80", rsxWarm)
	}

	// Swap firmware. Nothing is invalidated until a stale program runs.
	machine.InstallTagTable(microcode.RotateOnly())
	if inv := core.BlockCacheStats().Invalidations; inv != 0 {
		t.Fatalf("invalidations before any post-swap run = %d, want 0", inv)
	}

	// Running A drops and re-decodes A alone: one tick, A's blocks decoded
	// again, B's old table still in place.
	staleB := core.bb.progs[progB]
	runToHalt(progA, 0x100_0000)
	afterA := core.BlockCacheStats()
	if afterA.Invalidations != 1 {
		t.Fatalf("invalidations after re-running A = %d, want 1", afterA.Invalidations)
	}
	decodedA := afterA.Misses - warm.Misses
	if decodedA == 0 || 2*decodedA != warm.Misses {
		t.Fatalf("re-running A decoded %d blocks, want half of the %d warm misses", decodedA, warm.Misses)
	}
	if got := core.Counters().RSX() - rsxWarm; got != 20 { // only ROLI tagged now
		t.Fatalf("post-swap RSX delta for A = %d, want 20", got)
	}
	if got := core.bb.progs[progB]; &got.blocks[0] != &staleB.blocks[0] || got.gen != staleB.gen || staleB.gen == core.bb.progs[progA].gen {
		t.Fatal("running A replaced B's table")
	}

	// B was left stale; its own next run pays its own tick and re-decode.
	runToHalt(progB, 0x200_0000)
	afterB := core.BlockCacheStats()
	if afterB.Invalidations != 2 {
		t.Fatalf("invalidations after re-running B = %d, want 2", afterB.Invalidations)
	}
	if got := afterB.Misses - afterA.Misses; got != decodedA {
		t.Fatalf("re-running B decoded %d blocks, want %d", got, decodedA)
	}

	// Steady state: the new generation is recorded, so further runs under
	// the same table drop and decode nothing.
	runToHalt(progA, 0x100_0000)
	runToHalt(progB, 0x200_0000)
	if s := core.BlockCacheStats(); s.Invalidations != 2 || s.Misses != afterB.Misses {
		t.Fatalf("steady state: invalidations = %d (want 2), misses %d -> %d", s.Invalidations, afterB.Misses, s.Misses)
	}
}

// directedProgram is a straight-line program aimed at the block engine's
// inline paths. It stores and loads 8 and 4 bytes at every page offset
// 4088..4095, so the accesses that straddle a page boundary take the slow
// path. It loads twice from a page nothing writes (R12 and R13 start
// non-zero and must read back 0, and the page must stay unmapped). It
// alternates between two pages whose indices differ by 64, so they evict
// each other from one TLB entry. Then every flag writer meets every
// conditional branch over edge-case operands; each not-taken branch adds a
// distinct constant into R20 with LEA (which writes no flags), so a wrong
// decision anywhere changes R20.
func directedProgram() *isa.Program {
	const page = 4096
	b := isa.NewBuilder("directed")
	b.Movi(isa.R10, 0x1122_3344_5566_7788)
	b.Movi(isa.R11, -0x6655_4433_2211_0100)
	b.Movi(isa.R12, -1)
	b.Movi(isa.R13, -1)
	b.OpI(isa.LEA, isa.R5, isa.R28, page)
	acc := func(r isa.Reg) {
		b.OpI(isa.ROLI, isa.R7, isa.R7, 5)
		b.Op3(isa.XOR, isa.R7, isa.R7, r)
	}
	// Page-edge accesses: loads of unmapped straddling words first, then
	// store/load pairs that map pages 1 and 2.
	for off := int64(4088); off < page; off++ {
		b.Ld(isa.R6, isa.R5, off)
		acc(isa.R6)
		b.Ld32(isa.R6, isa.R5, off)
		acc(isa.R6)
	}
	for off := int64(4088); off < page; off++ {
		b.St(isa.R5, off, isa.R10)
		b.Ld(isa.R6, isa.R5, off)
		acc(isa.R6)
		b.St32(isa.R5, off, isa.R11)
		b.Ld32(isa.R6, isa.R5, off)
		acc(isa.R6)
		b.Ld(isa.R6, isa.R5, off-8)
		acc(isa.R6)
	}
	// A never-written page: both loads miss and read zero.
	b.Ld(isa.R12, isa.R28, 10*page+8)
	b.Ld32(isa.R13, isa.R28, 10*page+8)
	b.Ld(isa.R6, isa.R28, 10*page+8)
	acc(isa.R6)
	// Pages 3 and 67 share TLB entry (index & 63).
	for k := int64(0); k < 6; k++ {
		b.St(isa.R28, 3*page+16+8*k, isa.R10)
		b.St32(isa.R28, 67*page+16+8*k, isa.R11)
		b.Ld(isa.R6, isa.R28, 3*page+16+8*k)
		acc(isa.R6)
		b.Ld32(isa.R6, isa.R28, 67*page+16+8*k)
		acc(isa.R6)
		b.St(isa.R28, 67*page+1024+8*k, isa.R6)
		b.Ld(isa.R6, isa.R28, 67*page+1024)
		acc(isa.R6)
	}

	const minInt = -1 << 63
	pairs := [][2]int64{
		{0, 0}, {1, 1}, {1, 2}, {2, 1}, {1<<63 - 1, 1}, {minInt, 1},
		{minInt, -1}, {-1, 1}, {-1, -1}, {0x8000_0000, 31}, {-5, 3},
	}
	rrr := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.IMUL, isa.DIV, isa.MOD,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.ROL, isa.ROR}
	rri := []isa.Op{isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI,
		isa.SHRI, isa.SARI, isa.ROLI, isa.RORI, isa.ROL32I, isa.ROR32I}
	conds := []isa.Op{isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE}
	rng := rand.New(rand.NewSource(14))
	label := 0
	branches := func() {
		for _, cc := range conds {
			skip := fmt.Sprintf("skip%d", label)
			label++
			b.Jcc(cc, skip)
			b.OpI(isa.LEA, isa.R20, isa.R20, rng.Int63n(1<<40))
			b.Label(skip)
		}
	}
	for _, p := range pairs {
		writers := []func(){
			func() { b.Op3(isa.NEG, isa.R3, isa.R1, 0) },
			func() { b.Op3(isa.NOT, isa.R3, isa.R1, 0) },
			func() { b.Op3(isa.INC, isa.R1, 0, 0) },
			func() { b.Op3(isa.DEC, isa.R1, 0, 0) },
			func() { b.Cmp(isa.R1, isa.R2) },
			func() { b.Cmpi(isa.R1, p[1]) },
			func() { b.Emit(isa.Inst{Op: isa.TEST, Rs1: isa.R1, Rs2: isa.R2}) },
		}
		for _, op := range rrr {
			if (op == isa.DIV || op == isa.MOD) && p[1] == 0 {
				continue
			}
			writers = append(writers, func() { b.Op3(op, isa.R3, isa.R1, isa.R2) })
		}
		for _, op := range rri {
			writers = append(writers, func() { b.OpI(op, isa.R3, isa.R1, p[1]) })
		}
		for _, w := range writers {
			b.Movi(isa.R1, p[0])
			b.Movi(isa.R2, p[1])
			w()
			branches()
		}
	}
	b.Halt()
	prog := b.MustBuild()
	prog.DataSize = 68 * page
	return prog
}

// TestBlockEngineDirected runs directedProgram under the block and the
// step engine at every slice size from 1 to maxBlockLen, so every
// partial-retire point of every block is a Run boundary at least once and
// must write back exact flags, PC and TLB counts.
func TestBlockEngineDirected(t *testing.T) {
	prog := directedProgram()
	for slice := uint64(1); slice <= maxBlockLen+1; slice++ {
		label := fmt.Sprintf("slice=%d", slice)
		plain := runBB(t, prog, engStep, slice, 0, nil)
		cached := runBB(t, prog, engBlocks, slice, 0, nil)
		requireSameOutcome(t, label, cached, plain)
		if cached.fault != "" || !cached.halted {
			t.Fatalf("%s: run ended in %q, want a clean HALT", label, cached.fault)
		}
		if cached.regs[12] != 0 || cached.regs[13] != 0 {
			t.Fatalf("%s: loads from an unwritten page read %#x, %#x", label, cached.regs[12], cached.regs[13])
		}
		if cached.tlbHits == 0 || cached.tlbMisses == 0 {
			t.Fatalf("%s: TLB hits/misses %d/%d, want both", label, cached.tlbHits, cached.tlbMisses)
		}
		// Only the stored-to data pages 1, 2, 3 and 67 are mapped: the loads
		// from page 10 (and from page 2 before its first store) map nothing.
		if cached.pages != 4 {
			t.Fatalf("%s: %d pages mapped, want the 4 stored-to data pages", label, cached.pages)
		}
	}
}

// TestPackedFlagsMatchReference checks the packed-flag helpers against the
// Flags-valued reference ones over edge-case operands, and that packing
// round-trips every one of the 16 flag states.
func TestPackedFlagsMatchReference(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<64 - 1, 1<<64 - 2, 0x8000_0000, 0xFFFF_FFFF}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := addPacked(a, b, a+b), packFlags(addFlags(a, b, a+b)); got != want {
				t.Fatalf("add %#x+%#x: packed %04b, want %04b", a, b, got, want)
			}
			if got, want := subPacked(a, b, a-b), packFlags(subFlags(a, b, a-b)); got != want {
				t.Fatalf("sub %#x-%#x: packed %04b, want %04b", a, b, got, want)
			}
			if got, want := logicPacked(a^b), packFlags(logicFlags(a^b)); got != want {
				t.Fatalf("logic %#x: packed %04b, want %04b", a^b, got, want)
			}
		}
	}
	for p := uint8(0); p < 16; p++ {
		if got := packFlags(unpackFlags(p)); got != p {
			t.Fatalf("pack(unpack(%04b)) = %04b", p, got)
		}
	}
}

// TestPackedBranchAllFlagStates drives every conditional branch through the
// block engine from each of the 16 flag states, including states no single
// flag writer produces (Z with C, say), and checks the decision against
// condTaken and that the flags come back out unchanged.
func TestPackedBranchAllFlagStates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	for _, op := range []isa.Op{isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG,
		isa.JGE, isa.JB, isa.JBE, isa.JA, isa.JAE} {
		// 0: Jcc 2; 1: MOVI R1, 1 (not taken); 2: HALT
		prog := &isa.Program{Name: op.String(), Code: []isa.Inst{
			{Op: op, Imm: 2}, {Op: isa.MOVI, Rd: isa.R1, Imm: 1}, {Op: isa.HALT},
		}}
		for p := uint8(0); p < 16; p++ {
			fl := unpackFlags(p)
			ctx, err := NewContext(prog, machine.Memory(), bbBase)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Flags = fl
			core.LoadContext(ctx)
			core.Run(1 << 10)
			if taken := ctx.Regs[isa.R1] == 0; taken != condTaken(op, fl) {
				t.Fatalf("%v under %+v: taken=%v, want %v", op, fl, taken, !taken)
			}
			if ctx.Flags != fl {
				t.Fatalf("%v: flags %+v came back as %+v", op, fl, ctx.Flags)
			}
		}
	}
}

// RequireBlocksMatchStep runs prog for budget instructions, in slices of
// the given size, under the block and the step engine, and fails t
// unless the outcomes are identical; it returns the instructions retired.
// It is exported for bbcache_miner_test.go, which builds the ISA miners
// through package workload (an importer of this package) and so is an
// external test.
func RequireBlocksMatchStep(t *testing.T, prog *isa.Program, slice, budget uint64) uint64 {
	t.Helper()
	cached := runBB(t, prog, engBlocks, slice, budget, nil)
	requireSameOutcome(t, fmt.Sprintf("%s/slice=%d", prog.Name, slice),
		cached, runBB(t, prog, engStep, slice, budget, nil))
	return cached.retired
}
