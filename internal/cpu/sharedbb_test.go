package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// sharedCore loads prog on a fresh single-core machine wired to the given
// block store (nil = the machine's own). tags, when non-nil, is installed so
// machines share one tag-table generation — the fleet wiring that makes
// cross-machine sharing possible.
func sharedCore(t *testing.T, prog *isa.Program, shared *SharedBlocks, tags *microcode.TagTable) (*CPU, *ArchContext) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Characterize = true
	cfg.SharedBlocks = shared
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tags != nil {
		machine.InstallTagTable(tags)
	}
	ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	machine.Core(0).LoadContext(ctx)
	return machine, ctx
}

// runSlices runs the machine's core in slices until ctx halts or limit
// slices have run.
func runSlices(t *testing.T, machine *CPU, ctx *ArchContext, slice uint64, limit int) {
	t.Helper()
	for i := 0; i < limit && !ctx.Halted; i++ {
		if n := machine.Core(0).Run(slice); n == 0 && !ctx.Halted {
			t.Fatal("no progress")
		}
	}
}

// sharedOutcome captures the architectural and counter state of the
// machine's core.
func sharedOutcome(machine *CPU, ctx *ArchContext) bbOutcome {
	bank := machine.Core(0).Counters()
	out := bbOutcome{
		regs:    ctx.Regs,
		flags:   ctx.Flags,
		pc:      ctx.PC,
		halted:  ctx.Halted,
		retired: bank.Retired(),
		rsx:     bank.RSX(),
		cycles:  bank.Cycles(),
		hist:    bank.Histogram(),
		mem:     machine.Memory().ReadBytes(0x100_0000, 512),
	}
	if ctx.Fault != nil {
		out.fault = ctx.Fault.Error()
	}
	return out
}

// runShared executes prog to completion on a fresh sharedCore, in slices.
func runShared(t *testing.T, prog *isa.Program, shared *SharedBlocks, tags *microcode.TagTable, slice uint64) bbOutcome {
	t.Helper()
	machine, ctx := sharedCore(t, prog, shared, tags)
	runSlices(t, machine, ctx, slice, math.MaxInt)
	return sharedOutcome(machine, ctx)
}

// TestSharedBlocksDifferential is the store's bit-identity property: a
// machine that adopts blocks published by another machine produces exactly
// the outcome of a machine decoding everything itself.
func TestSharedBlocksDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		prog := randomProgram(rng)
		tags := microcode.RSX() // one table instance = one generation, fleet-style
		for _, slice := range []uint64{1 << 30, 7} {
			private := runShared(t, prog, nil, nil, slice)
			shared := NewSharedBlocks()
			warm := runShared(t, prog, shared, tags, slice)  // publisher
			adopt := runShared(t, prog, shared, tags, slice) // consumer
			requireSameOutcome(t, prog.Name+"/publisher", private, warm)
			requireSameOutcome(t, prog.Name+"/adopter", private, adopt)
			s := shared.Stats()
			if s.Published == 0 {
				t.Fatalf("%s: nothing published", prog.Name)
			}
			if s.Hits == 0 {
				t.Fatalf("%s: adopter did not attach to the publisher's table", prog.Name)
			}
		}
	}
}

// TestSharedBlocksGenerationIsolation: blocks decoded under one tag-table
// generation must not serve a machine running another generation.
func TestSharedBlocksGenerationIsolation(t *testing.T) {
	b := isa.NewBuilder("gen")
	b.Movi(isa.R1, 5)
	b.OpI(isa.XORI, isa.R2, isa.R1, 0x3)
	b.Halt()
	prog := b.MustBuild()

	shared := NewSharedBlocks()
	tags := microcode.RSX()
	gen1 := shared.table(prog, 1)
	blk := shared.decode(gen1, prog.Code, 0, tags)
	if again := shared.table(prog, 1); &again[0] != &gen1[0] || again[0].Load() != blk {
		t.Fatal("same-generation attach did not return the published table")
	}
	if got := shared.table(prog, 2)[0].Load(); got != nil {
		t.Fatal("got a generation-1 block under generation 2")
	}
	if got := gen1[1].Load(); got != nil {
		t.Fatal("got a block for a PC never published")
	}
	if s := shared.Stats(); s.Hits != 1 || s.Misses != 2 || s.Published != 1 {
		t.Fatalf("stats = %+v, want 1 attach hit, 2 tables, 1 block", s)
	}
}

// TestSharedBlocksByPointer: blocks are immutable, so two CPUs on one store
// hold the same *bbBlock for a pc. A firmware swap on one CPU must then
// leave the other bit-identical to a private decode: the swap moves the
// first CPU to a new generation's table and never touches the blocks the
// second one holds.
func TestSharedBlocksByPointer(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		prog := randomProgram(rng)
		const slice = 7
		private := runShared(t, prog, nil, nil, slice)
		store := NewSharedBlocks()
		tags := microcode.RSX()
		m1, ctx1 := sharedCore(t, prog, store, tags) // publisher
		m2, ctx2 := sharedCore(t, prog, store, tags) // adopter
		runSlices(t, m1, ctx1, slice, 6)
		runSlices(t, m2, ctx2, slice, 3)
		b1 := m1.Core(0).bb.progs[prog].blocks[prog.Entry].Load()
		b2 := m2.Core(0).bb.progs[prog].blocks[prog.Entry].Load()
		if b1 == nil || b1 != b2 {
			t.Fatalf("%s: entry block %p on one CPU, %p on the other; want one shared pointer", prog.Name, b1, b2)
		}
		// The publisher swaps firmware mid-program and keeps running
		// under the new generation while the adopter holds its blocks.
		m1.InstallTagTable(microcode.RotateOnly())
		runSlices(t, m1, ctx1, slice, math.MaxInt)
		runSlices(t, m2, ctx2, slice, math.MaxInt)
		requireSameOutcome(t, prog.Name+"/adopter", private, sharedOutcome(m2, ctx2))
		if store.Stats().Hits == 0 {
			t.Fatalf("%s: adopter did not attach to the publisher's table", prog.Name)
		}
	}
}

// TestSharedBlocksAcrossCores: the cores of a standalone CPU share one
// store, so a core running a program another core has already run to the
// same point decodes nothing.
func TestSharedBlocksAcrossCores(t *testing.T) {
	prog := randomProgram(rand.New(rand.NewSource(31)))
	cfg := DefaultConfig()
	cfg.Cores = 2
	machine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, base := range []uint64{0x100_0000, 0x200_0000} {
		ctx, err := NewContext(prog, machine.Memory(), base)
		if err != nil {
			t.Fatal(err)
		}
		core := machine.Core(i)
		core.LoadContext(ctx)
		for !ctx.Halted {
			core.Run(1 << 20)
		}
	}
	if s := machine.Core(0).BlockCacheStats(); s.Misses == 0 {
		t.Fatal("core 0 decoded no blocks")
	}
	if s := machine.Core(1).BlockCacheStats(); s.Misses != 0 || s.Hits == 0 {
		t.Fatalf("core 1 stats = %+v, want hits and 0 misses", s)
	}
}

// TestSharedBlocksEviction: the table-count capacity bound evicts and
// counts.
func TestSharedBlocksEviction(t *testing.T) {
	shared := NewSharedBlocks()
	tags := microcode.RSX()
	progs := make([]*isa.Program, maxSharedProgs+8)
	for i := range progs {
		b := isa.NewBuilder(fmt.Sprintf("p%d", i))
		b.Movi(isa.R1, int64(i))
		b.Halt()
		progs[i] = b.MustBuild()
		shared.decode(shared.table(progs[i], 1), progs[i].Code, 0, tags)
	}
	s := shared.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions after %d programs (cap %d)", len(progs), maxSharedProgs)
	}
	if s.Misses != uint64(len(progs)) || s.Published != uint64(len(progs)) {
		t.Fatalf("tables = %d, published = %d, want %d each", s.Misses, s.Published, len(progs))
	}
}

// TestSharedBlocksNil: Stats is safe on a nil store.
func TestSharedBlocksNil(t *testing.T) {
	var s *SharedBlocks
	if st := s.Stats(); st != (SharedBlocksStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestSharedBlocksConcurrent hammers one store from many goroutines (the
// fleet's workers) under the race detector.
func TestSharedBlocksConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	progs := []*isa.Program{randomProgram(rng), randomProgram(rng), randomProgram(rng)}
	shared := NewSharedBlocks()
	tags := microcode.RSX()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := progs[(w+i)%len(progs)]
				if tbl := shared.table(p, 1); tbl[0].Load() == nil {
					shared.decode(tbl, p.Code, 0, tags)
				}
			}
		}(w)
	}
	wg.Wait()
	s := shared.Stats()
	if s.Hits+s.Misses != 8*50 || s.Misses != uint64(len(progs)) {
		t.Fatalf("hits+misses = %d, misses = %d, want %d and %d", s.Hits+s.Misses, s.Misses, 8*50, len(progs))
	}
	if s.Published != uint64(len(progs)) {
		t.Fatalf("published = %d, want one block per table (%d)", s.Published, len(progs))
	}

	// Cores on separate goroutines publish and execute the same blocks at
	// once, each ending in the private-decode outcome.
	want := runShared(t, progs[0], nil, nil, 7)
	machines := make([]*CPU, 4)
	ctxs := make([]*ArchContext, len(machines))
	for i := range machines {
		machines[i], ctxs[i] = sharedCore(t, progs[0], shared, tags)
	}
	for i := range machines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !ctxs[i].Halted && machines[i].Core(0).Run(7) > 0 {
			}
		}(i)
	}
	wg.Wait()
	for i := range machines {
		requireSameOutcome(t, fmt.Sprintf("core goroutine %d", i), want, sharedOutcome(machines[i], ctxs[i]))
	}
}
