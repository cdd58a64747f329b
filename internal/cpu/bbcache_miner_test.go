package cpu_test

import (
	"runtime"
	"testing"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/workload"
)

// TestMinerBlocksVsStep holds the block engine to the step engine on the
// real ISA miners: 2M instructions of xmr-isa and zec-isa, both in slices
// of 7 (splitting blocks everywhere) and of 1<<20.
func TestMinerBlocksVsStep(t *testing.T) {
	const budget = 2_000_000
	for _, prog := range []*isa.Program{workload.XMRMinerProgram(), workload.ZecMinerProgram()} {
		for _, slice := range []uint64{7, 1 << 20} {
			if n := cpu.RequireBlocksMatchStep(t, prog, slice, budget); n != budget {
				t.Fatalf("%s/slice=%d: retired %d of %d", prog.Name, slice, n, budget)
			}
		}
	}
}

// TestBlockEngineDoesNotAllocate pins the block engine's zero-allocation
// hot path at run time. The kernel's restart test runs a program that
// halts after a handful of instructions; here a baked SHA-3 kernel,
// restarted in place at every HALT as the kernel's looping workloads do,
// retires over 1M instructions per measured run, nearly all inside
// execBlock, once a warm-up run has decoded every block. Each run is a
// whole number of passes from entry to HALT: a run that stopped mid-block
// would make the next one decode a block at a new entry pc, which is a
// cold-path allocation, not a hot-path one.
func TestBlockEngineDoesNotAllocate(t *testing.T) {
	const (
		runs = 4
		base = 0x100_0000
	)
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	machine, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.SHA3Program()
	ctx, err := cpu.NewContext(prog, machine.Memory(), base)
	if err != nil {
		t.Fatal(err)
	}
	core := machine.Core(0)
	restart := func() {
		if ctx.Fault != nil {
			t.Fatal(ctx.Fault)
		}
		ctx.Reset(prog, machine.Memory(), base)
		core.LoadContext(ctx)
	}
	core.LoadContext(ctx)
	var pass uint64 // instructions from entry to HALT
	for !ctx.Halted {
		pass += core.Run(1 << 20)
	}
	restart()
	slice := (1<<20/pass + 1) * pass
	run := func() {
		for budget := slice; budget > 0; {
			budget -= core.Run(budget)
			if ctx.Halted {
				restart()
			}
		}
	}
	run() // warm-up
	bank, warm := core.Counters(), core.BlockCacheStats()
	retired := bank.Retired()
	if allocs := testing.AllocsPerRun(runs, run); allocs != 0 {
		t.Fatalf("%d-instruction block-engine run allocates %.1f objects, want 0", slice, allocs)
	}
	// AllocsPerRun adds one unmeasured warm-up call.
	if got := bank.Retired() - retired; got != (runs+1)*slice {
		t.Fatalf("retired %d instructions, want %d", got, (runs+1)*slice)
	}
	if s := core.BlockCacheStats(); s.Misses != warm.Misses || s.LenSum-warm.LenSum != (runs+1)*slice {
		t.Fatalf("measured runs decoded %d blocks and retired %d of %d instructions through the cache, want 0 and all",
			s.Misses-warm.Misses, s.LenSum-warm.LenSum, (runs+1)*slice)
	}
}

// TestSharedBlocksAdoptAllocs: attaching a core to a program's fully
// published block table allocates the same number of bytes whatever the
// program's length — the core maps the program to the store's table and
// copies nothing. zec-isa has 2,440 instructions and sha2 142. Core 0
// publishes every block a budget reaches (and maps the pages it touches);
// core 1 then reruns the same budget over the same memory, so the bytes
// core 1 allocates are its attach alone.
func TestSharedBlocksAdoptAllocs(t *testing.T) {
	const (
		budget = 200_000
		slice  = 10_000
		base   = 0x100_0000
	)
	attachBytes := func(prog *isa.Program) uint64 {
		store := cpu.NewSharedBlocks()
		cfg := cpu.DefaultConfig()
		cfg.Cores = 2
		cfg.SharedBlocks = store
		machine, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		load := func(core *cpu.Core) *cpu.ArchContext {
			ctx, err := cpu.NewContext(prog, machine.Memory(), base)
			if err != nil {
				t.Fatal(err)
			}
			core.LoadContext(ctx)
			return ctx
		}
		run := func(core *cpu.Core, ctx *cpu.ArchContext) {
			for n := uint64(0); n < budget && !ctx.Halted; {
				n += core.Run(min(slice, budget-n))
			}
		}
		run(machine.Core(0), load(machine.Core(0)))
		published := store.Stats().Published
		ctx := load(machine.Core(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(machine.Core(1), ctx)
		runtime.ReadMemStats(&after)
		if s := store.Stats(); s.Published != published {
			t.Fatalf("%s: adopting core published %d more blocks", prog.Name, s.Published-published)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	long, short := workload.ZecMinerProgram(), workload.SHA2Program()
	if len(long.Code) <= 10*len(short.Code) {
		t.Fatalf("%s (%d insts) is not much longer than %s (%d)", long.Name, len(long.Code), short.Name, len(short.Code))
	}
	// Runtime background allocations can land in the window; a per-pc
	// table would differ by 8 bytes per instruction (over 18 KiB here).
	lb, sb := attachBytes(long), attachBytes(short)
	if diff := max(lb, sb) - min(lb, sb); diff > 1024 {
		t.Fatalf("attaching allocated %d bytes for %s and %d for %s: the cost grows with program length", lb, long.Name, sb, short.Name)
	}
}
