package cpu

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// runShared executes prog to completion on a fresh single-core machine
// wired to the given fleet-scope cache (nil = sharing off), in slices.
// tags, when non-nil, is installed so machines share one tag-table
// generation — the fleet wiring that makes cross-machine hits possible.
func runShared(t *testing.T, prog *isa.Program, shared *SharedBlocks, tags *microcode.TagTable, slice uint64) bbOutcome {
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
	core := machine.Core(0)
	core.LoadContext(ctx)
	for !ctx.Halted {
		if n := core.Run(slice); n == 0 && !ctx.Halted {
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
		mem:     machine.Memory().ReadBytes(0x100_0000, 512),
	}
	if ctx.Fault != nil {
		out.fault = ctx.Fault.Error()
	}
	return out
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

// TestSharedBlocksCopies: published and adopted blocks are private copies —
// re-tagging the publisher's or a consumer's block (retag rewrites the RSX
// pre-counts in place) must not leak into the published entry.
func TestSharedBlocksCopies(t *testing.T) {
	b := isa.NewBuilder("copy")
	b.Movi(isa.R1, 1)
	b.Halt()
	prog := b.MustBuild()

	shared := NewSharedBlocks()
	orig := &bbBlock{pc: 0, rsx: 1, tagMask: 1}
	shared.put(prog, 1, 0, orig)
	orig.rsx, orig.tagMask = 0, 0
	got := shared.get(prog, 1, 0)
	if got == nil {
		t.Fatal("miss")
	}
	if got == orig {
		t.Fatal("get returned the published pointer, not a copy")
	}
	if got.rsx != 1 || got.tagMask != 1 {
		t.Fatalf("adopted pre-counts = %d/%#x, want 1/0x1 (publisher mutation leaked)", got.rsx, got.tagMask)
	}
	got.rsx = 1000
	if again := shared.get(prog, 1, 0); again.rsx != 1 {
		t.Fatal("consumer pre-count mutation leaked into the shared entry")
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
}
