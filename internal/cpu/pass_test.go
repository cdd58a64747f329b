package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"darkarts/internal/cryptoalg"
	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// loopTask is the restart loop of kernel.ISAWorkload.RunSlice for a
// looping program loaded at bbBase, on a one-core characterizing machine.
// With replay set it replays from its first HALT on, as the workload does;
// without, it is the block-engine reference.
type loopTask struct {
	machine *CPU
	prog    *isa.Program
	ctx     *ArchContext
	replay  bool
	r       PassReplay
}

func newLoopTask(t testing.TB, prog *isa.Program, replay bool) *loopTask {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Characterize = true
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, machine.Memory(), bbBase)
	if err != nil {
		t.Fatal(err)
	}
	return &loopTask{machine: machine, prog: prog, ctx: ctx, replay: replay}
}

// slice runs one slice of budget instructions.
func (l *loopTask) slice(budget uint64) {
	core, m := l.machine.Core(0), l.machine.Memory()
	core.LoadContext(l.ctx)
	if l.r.Active() {
		if core.CanReplay() {
			core.Replay(&l.r, budget)
			return
		}
		l.r.Stop(l.ctx, m)
	}
	for budget > 0 {
		budget -= core.Run(budget)
		if !l.ctx.Halted {
			continue
		}
		if l.ctx.Fault != nil {
			return
		}
		if l.replay && l.r.Start(core, l.prog, bbBase) {
			core.Replay(&l.r, budget)
			return
		}
		l.ctx.Reset(l.prog, m, bbBase)
		core.LoadContext(l.ctx)
	}
}

// requireSameCharges compares everything a slice charges: the counter
// bank and the block statistics other than Replayed.
func requireSameCharges(t *testing.T, label string, got, want *loopTask) {
	t.Helper()
	gb, wb := got.machine.Core(0).Counters(), want.machine.Core(0).Counters()
	if gb.Retired() != wb.Retired() || gb.RSX() != wb.RSX() || gb.Cycles() != wb.Cycles() {
		t.Fatalf("%s: retired/rsx/cycles %d/%d/%d, block engine %d/%d/%d", label,
			gb.Retired(), gb.RSX(), gb.Cycles(), wb.Retired(), wb.RSX(), wb.Cycles())
	}
	if gb.Histogram() != wb.Histogram() {
		t.Fatalf("%s: per-op histogram differs", label)
	}
	gs, ws := got.machine.Core(0).BlockCacheStats(), want.machine.Core(0).BlockCacheStats()
	gs.Replayed = 0
	if gs != ws {
		t.Fatalf("%s: block stats %+v, block engine %+v", label, gs, ws)
	}
}

// requireSameState syncs got and compares its context and region with
// want's executed ones.
func requireSameState(t *testing.T, label string, got, want *loopTask) {
	t.Helper()
	got.r.Sync(got.ctx, got.machine.Memory())
	g, w := got.ctx, want.ctx
	if g.Regs != w.Regs || g.Flags != w.Flags || g.PC != w.PC || g.Halted != w.Halted || (g.Fault == nil) != (w.Fault == nil) {
		t.Fatalf("%s: context pc=%d halted=%v flags=%+v, executed pc=%d halted=%v flags=%+v (or registers differ)",
			label, g.PC, g.Halted, g.Flags, w.PC, w.Halted, w.Flags)
	}
	n := int(RegionSize(got.prog))
	if !bytes.Equal(got.machine.Memory().ReadBytes(bbBase, n), want.machine.Memory().ReadBytes(bbBase, n)) {
		t.Fatalf("%s: region bytes differ", label)
	}
}

// passLength is the number of instructions one pass of prog retires.
func passLength(t testing.TB, prog *isa.Program) uint64 {
	t.Helper()
	tr := NewSharedBlocks().PassTrace(prog, bbBase)
	if tr == nil {
		t.Fatalf("%s: no pass trace", prog.Name)
	}
	return tr.Len()
}

// bakedKernels returns the four crypto kernels with one block of zero
// input baked in: real rounds that rewrite their state before halting.
func bakedKernels() []*isa.Program {
	bake := func(prog *isa.Program, off int64) *isa.Program {
		size := prog.DataSize
		if int64(len(prog.Data)) > size {
			size = int64(len(prog.Data))
		}
		prog.Data = append(prog.Data, make([]byte, size-int64(len(prog.Data)))...)
		binary.LittleEndian.PutUint64(prog.Data[off:], 1)
		return prog
	}
	sha, shaLay := cryptoalg.BuildSHA256Program(1)
	kec, kecLay := cryptoalg.BuildKeccakHashProgram(1)
	aes, aesLay := cryptoalg.BuildAESProgram(make([]byte, 16), 1)
	bla, blaLay := cryptoalg.BuildBlake2bProgram(32, 1)
	return []*isa.Program{
		bake(sha, shaLay.NBlk), bake(kec, kecLay.NBlk), bake(aes, aesLay.NBlk), bake(bla, blaLay.NRec),
	}
}

// scratchWordProgram keeps a word of scratch data that Reset does not
// rewrite: zero between passes, one inside a pass, and copied out at
// entry. Its passes replay, but a context brought forward from inside one
// pass into a later one must finish its own pass first, or the copy reads
// the one.
func scratchWordProgram() *isa.Program {
	b := isa.NewBuilder("scratch-word")
	b.Ld(4, 28, 0)
	b.St(28, 8, 4)
	b.Movi(1, 1)
	b.St(28, 0, 1)
	b.Movi(2, 100)
	b.Label("loop")
	b.OpI(isa.ROLI, 3, 3, 5)
	b.OpI(isa.SUBI, 2, 2, 1)
	b.Cmpi(2, 0)
	b.Jcc(isa.JNE, "loop")
	b.Movi(1, 0)
	b.St(28, 0, 1)
	b.Halt()
	prog := b.MustBuild()
	prog.DataSize = 16
	return prog
}

// replayingHotLoop is a hotLoopProgram whose whole data area is baked, so
// Reset rewrites everything its loads read and its passes replay.
func replayingHotLoop(rng *rand.Rand) *isa.Program {
	prog := hotLoopProgram(rng)
	prog.Data = make([]byte, prog.DataSize)
	rng.Read(prog.Data)
	return prog
}

// runReplayDifferential runs a replaying task and a block-engine task in
// lockstep over slices drawn from next, installing tags[k] on both
// machines once total instructions pass swapAt[k], until total reaches
// limit. It compares the charges after every slice and the synced state
// whenever syncNow says so, and at the end.
func runReplayDifferential(t *testing.T, label string, prog *isa.Program, limit uint64,
	next func() uint64, syncNow func(i int) bool, swapAt []uint64, tags []*microcode.TagTable) *loopTask {
	t.Helper()
	got, want := newLoopTask(t, prog, true), newLoopTask(t, prog, false)
	var total uint64
	swaps := 0
	for i := 0; total < limit; i++ {
		for swaps < len(swapAt) && total >= swapAt[swaps] {
			got.machine.InstallTagTable(tags[swaps])
			want.machine.InstallTagTable(tags[swaps])
			swaps++
		}
		n := next()
		got.slice(n)
		want.slice(n)
		total += n
		at := fmt.Sprintf("%s: slice %d (budget %d, total %d)", label, i, n, total)
		requireSameCharges(t, at, got, want)
		if syncNow(i) {
			requireSameState(t, at, got, want)
		}
	}
	requireSameState(t, label+": end", got, want)
	return got
}

// TestReplayMatchesBlockEngine: replay charges exactly what the block
// engine charges, and Sync reproduces the executed context and region,
// for the four baked crypto kernels and scratchWordProgram at every slice
// size from 1 to 65, at the mixed fleet's 200 and at 1<<20, over three
// passes with an RSXO tag-table swap in the middle pass.
func TestReplayMatchesBlockEngine(t *testing.T) {
	sizes := []uint64{200, 1 << 20}
	for s := uint64(1); s <= 65; s++ {
		sizes = append(sizes, s)
	}
	for _, prog := range append(bakedKernels(), scratchWordProgram()) {
		l := passLength(t, prog)
		for _, size := range sizes {
			limit := 3 * l
			if size > l {
				limit = 4 * size
			}
			got := runReplayDifferential(t, fmt.Sprintf("%s/slice=%d", prog.Name, size), prog, limit,
				func() uint64 { return size }, func(i int) bool { return i%211 == 0 },
				[]uint64{l + l/3}, []*microcode.TagTable{microcode.RSXO()})
			if got.machine.Core(0).BlockCacheStats().Replayed == 0 {
				t.Fatalf("%s/slice=%d: nothing was replayed", prog.Name, size)
			}
		}
	}
}

// FuzzPassReplay drives replay against the block engine over generated
// hot-loop programs whose data area is baked (so their passes replay),
// random slice sizes, random tag-table swaps and random sync points, all
// derived from the fuzz input. After every slice the replaying core's
// bank, histogram and block statistics must equal the block engine's;
// at every sync point and at the end, the synced context and region bytes
// must equal the executed ones.
func FuzzPassReplay(f *testing.F) {
	f.Add(int64(1), uint64(200), uint8(0))
	f.Add(int64(99), uint64(1<<16), uint8(3))
	f.Add(int64(-7), uint64(13), uint8(1))
	tables := []*microcode.TagTable{microcode.RSX(), microcode.RSXO(), microcode.RotateOnly()}
	f.Fuzz(func(t *testing.T, seed int64, maxSlice uint64, swaps uint8) {
		rng := rand.New(rand.NewSource(seed))
		prog := replayingHotLoop(rng)
		l := passLength(t, prog)
		maxSlice = 1 + maxSlice%(2*l)
		limit := 3*l + uint64(rng.Int63n(int64(l)))
		var swapAt []uint64
		var tags []*microcode.TagTable
		for i := 0; i < int(swaps%4); i++ {
			swapAt = append(swapAt, uint64(i+1)*limit/uint64(swaps%4+1))
			tags = append(tags, tables[rng.Intn(len(tables))])
		}
		runReplayDifferential(t, prog.Name, prog, limit,
			func() uint64 { return 1 + uint64(rng.Int63n(int64(maxSlice))) },
			func(int) bool { return rng.Intn(8) == 0 },
			swapAt, tags)
	})
}

// TestReplayDoesNotAllocate pins the replay hot path: once the pass is
// recorded, a mixed-fleet slice of 200 instructions allocates nothing.
func TestReplayDoesNotAllocate(t *testing.T) {
	prog := bakedKernels()[0]
	task := newLoopTask(t, prog, true)
	for i := uint64(0); i < 3*passLength(t, prog)/200; i++ {
		task.slice(200) // record, and decode every entry a 200 slice reaches
	}
	if !task.r.Active() {
		t.Fatal("task is not replaying")
	}
	if allocs := testing.AllocsPerRun(1000, func() { task.slice(200) }); allocs != 0 {
		t.Fatalf("replayed slice allocates %.1f objects, want 0", allocs)
	}
}

// refusedPrograms are looping programs the recorder must refuse, each for
// one of its rules.
func refusedPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	build := func(name string, data []byte, dataSize int64, emit func(b *isa.Builder)) *isa.Program {
		b := isa.NewBuilder(name)
		emit(b)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		prog.Data, prog.DataSize = data, dataSize
		return prog
	}
	// An 8-byte store whose last byte is the first past the region.
	storeOutside := build("store-outside", make([]byte, 16), 16, func(b *isa.Builder) {
		b.Movi(1, 7)
		b.St(28, 0, 1)
		b.Halt()
	})
	storeOutside.Code[1].Imm = int64(RegionSize(storeOutside)) - 7
	return []*isa.Program{
		storeOutside,
		// Loads from below its region.
		build("load-outside", make([]byte, 16), 16, func(b *isa.Builder) {
			b.Ld(1, 28, -8)
			b.Halt()
		}),
		// Counts its passes in a data word Reset does not rewrite.
		build("mutates-region", nil, 16, func(b *isa.Builder) {
			b.Ld(1, 28, 0)
			b.OpI(isa.ADDI, 1, 1, 1)
			b.St(28, 0, 1)
			b.Halt()
		}),
		// Divides by zero.
		build("faults", make([]byte, 8), 8, func(b *isa.Builder) {
			b.Movi(1, 9)
			b.Op3(isa.DIV, 2, 1, 3)
			b.Halt()
		}),
		// Declares a region too large to keep a copy of.
		build("region-too-large", nil, 2<<20, func(b *isa.Builder) {
			b.Movi(1, 7)
			b.St(28, 0, 1)
			b.Halt()
		}),
		// Never halts.
		build("never-halts", make([]byte, 8), 8, func(b *isa.Builder) {
			b.Label("top")
			b.OpI(isa.ADDI, 1, 1, 1)
			b.Jmp("top")
		}),
	}
}

// TestRecorderRefuses: each refused program gets no trace, and its
// looping task executes exactly as the block-engine reference, replaying
// nothing.
func TestRecorderRefuses(t *testing.T) {
	for _, prog := range refusedPrograms(t) {
		if tr := NewSharedBlocks().PassTrace(prog, bbBase); tr != nil {
			t.Errorf("%s: recorded a %d-instruction pass, want a refusal", prog.Name, tr.Len())
			continue
		}
		got := runReplayDifferential(t, prog.Name, prog, 5000,
			func() uint64 { return 37 }, func(int) bool { return true }, nil, nil)
		if r := got.machine.Core(0).BlockCacheStats().Replayed; r != 0 {
			t.Errorf("%s: replayed %d instructions of a refused program", prog.Name, r)
		}
	}
}

// TestReplayFallsBackOnObserver: a replaying task moved to a core that
// cannot replay (here, one with an observer attached) syncs and executes
// from the exact state, and replays again from its next HALT.
func TestReplayFallsBackOnObserver(t *testing.T) {
	prog := bakedKernels()[2]
	l := passLength(t, prog)
	got, want := newLoopTask(t, prog, true), newLoopTask(t, prog, false)
	core := got.machine.Core(0)
	var total uint64
	for i := 0; total < 5*l; i++ {
		n := uint64(97)
		var o RetireObserver
		if total > 2*l && total < 3*l {
			o = nopObserver{}
		}
		core.SetObserver(o)
		want.machine.Core(0).SetObserver(o)
		got.slice(n)
		want.slice(n)
		total += n
		requireSameCharges(t, fmt.Sprintf("slice %d", i), got, want)
	}
	requireSameState(t, "end", got, want)
	if core.BlockCacheStats().Replayed == 0 {
		t.Fatal("nothing was replayed")
	}
}

type nopObserver struct{}

func (nopObserver) Retired(int, isa.Inst) {}

// TestPassTraceConcurrent: concurrent first requests for one program on
// one store record it once; every caller gets the same trace.
func TestPassTraceConcurrent(t *testing.T) {
	store := NewSharedBlocks()
	prog := bakedKernels()[3]
	const callers = 8
	got := make([]*PassTrace, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = store.PassTrace(prog, bbBase)
		}(i)
	}
	wg.Wait()
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("caller %d got trace %p, caller 0 %p", i, tr, got[0])
		}
	}
	if other := store.PassTrace(prog, bbBase+1<<20); other == got[0] {
		t.Fatal("a second load base shares the first base's trace")
	}
}
