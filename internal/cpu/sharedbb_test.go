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
// fleet-scope cache (nil = sharing off). tags, when non-nil, is installed so
// machines share one tag-table generation — the fleet wiring that makes
// cross-machine hits possible.
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

// TestSharedBlocksDifferential is the fleet cache's bit-identity property:
// a machine that adopts blocks published by another machine produces
// exactly the outcome of a machine decoding everything itself.
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
				t.Fatalf("%s: adopter had no shared hits", prog.Name)
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
	blk := &bbBlock{pc: 0}
	shared.put(prog, 1, 0, blk)
	if got := shared.get(prog, 1, 0); got == nil {
		t.Fatal("same-generation get missed")
	}
	if got := shared.get(prog, 2, 0); got != nil {
		t.Fatal("got a generation-1 block under generation 2")
	}
	if got := shared.get(prog, 1, 4); got != nil {
		t.Fatal("got a block for a PC never published")
	}
}

// TestSharedBlocksByPointer: blocks are immutable, so get hands out the
// published pointer itself. A firmware swap on one CPU must then leave a
// second CPU adopting from the same store bit-identical to a private
// decode: the swap moves the first CPU to a new generation and never
// touches the blocks the second one holds.
func TestSharedBlocksByPointer(t *testing.T) {
	b := isa.NewBuilder("ptr")
	b.Movi(isa.R1, 1)
	b.Halt()
	prog := b.MustBuild()
	shared := NewSharedBlocks()
	orig := &bbBlock{pc: 0, rsx: 1, tagMask: 1}
	shared.put(prog, 1, 0, orig)
	if got := shared.get(prog, 1, 0); got != orig {
		t.Fatalf("get returned %p, want the published %p", got, orig)
	}

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
		// The publisher swaps firmware mid-program and keeps running
		// under the new generation while the adopter holds its blocks.
		m1.InstallTagTable(microcode.RotateOnly())
		runSlices(t, m1, ctx1, slice, math.MaxInt)
		runSlices(t, m2, ctx2, slice, math.MaxInt)
		requireSameOutcome(t, prog.Name+"/adopter", private, sharedOutcome(m2, ctx2))
		if store.Stats().Hits == 0 {
			t.Fatalf("%s: adopter had no shared hits", prog.Name)
		}
	}
}

// TestSharedBlocksAdoptAllocs: a CPU running a program whose blocks are all
// published allocates no blocks — only its dense block table and the map
// entry holding it.
func TestSharedBlocksAdoptAllocs(t *testing.T) {
	// Twenty conditional branches make twenty-odd blocks, far more than
	// the per-program table's fixed allocations.
	b := isa.NewBuilder("branchy")
	b.Movi(isa.R1, 3)
	for i := 0; i < 20; i++ {
		l := fmt.Sprintf("l%d", i)
		b.OpI(isa.ROLI, isa.R1, isa.R1, 1)
		b.Cmpi(isa.R1, 0)
		b.Jcc(isa.JE, l)
		b.Label(l)
	}
	b.Halt()
	prog := b.MustBuild()
	store := NewSharedBlocks()
	tags := microcode.RSX()
	runShared(t, prog, store, tags, 1<<20) // publisher
	published := store.Stats().Published
	if published < 20 {
		t.Fatalf("published %d blocks, want >= 20", published)
	}

	machine, ctx := sharedCore(t, prog, store, tags)
	start := *ctx
	core := machine.Core(0)
	allocs := testing.AllocsPerRun(5, func() {
		core.bb.progs = nil // a fresh core's empty block cache
		*ctx = start
		core.Run(1 << 20)
	})
	if !ctx.Halted {
		t.Fatal("program did not halt")
	}
	if s := store.Stats(); s.Published != published {
		t.Fatalf("adopter published %d more blocks", s.Published-published)
	}
	// Map header and bucket group, progBlocks, dense table.
	if allocs > 4 {
		t.Fatalf("adopting %d published blocks allocated %.0f objects, want <= 4", published, allocs)
	}
}

// TestSharedBlocksEviction: the program-count capacity bound evicts and
// counts.
func TestSharedBlocksEviction(t *testing.T) {
	shared := NewSharedBlocks()
	progs := make([]*isa.Program, maxSharedProgs+8)
	for i := range progs {
		b := isa.NewBuilder(fmt.Sprintf("p%d", i))
		b.Movi(isa.R1, int64(i))
		b.Halt()
		progs[i] = b.MustBuild()
		shared.put(progs[i], 1, 0, &bbBlock{pc: 0})
	}
	s := shared.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions after %d programs (cap %d)", len(progs), maxSharedProgs)
	}
	if s.Published != uint64(len(progs)) {
		t.Fatalf("published = %d, want %d", s.Published, len(progs))
	}
}

// TestSharedBlocksNil: a nil cache is the "off" state for every method.
func TestSharedBlocksNil(t *testing.T) {
	var s *SharedBlocks
	b := isa.NewBuilder("nil")
	b.Halt()
	prog := b.MustBuild()
	if got := s.get(prog, 1, 0); got != nil {
		t.Fatal("nil cache returned a block")
	}
	s.put(prog, 1, 0, &bbBlock{}) // must not panic
	if st := s.Stats(); st != (SharedBlocksStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestSharedBlocksConcurrent hammers one cache from many goroutines (the
// fleet's shard workers) under the race detector.
func TestSharedBlocksConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	progs := []*isa.Program{randomProgram(rng), randomProgram(rng), randomProgram(rng)}
	shared := NewSharedBlocks()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := progs[(w+i)%len(progs)]
				if blk := shared.get(p, 1, 0); blk == nil {
					shared.put(p, 1, 0, &bbBlock{pc: 0})
				}
			}
		}(w)
	}
	wg.Wait()
	s := shared.Stats()
	if s.Hits+s.Misses != 8*50 {
		t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, 8*50)
	}

	// Cores on separate goroutines publish and execute the same blocks at
	// once, each ending in the private-decode outcome.
	want := runShared(t, progs[0], nil, nil, 7)
	tags := microcode.RSX()
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
