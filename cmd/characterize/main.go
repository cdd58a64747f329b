// Command characterize runs the instruction-mix characterization of
// Section VI-A on any built-in workload: it executes the workload on the
// simulated processor with per-opcode counters (the Intel-SDE role in the
// paper's methodology) and prints per-1B-instruction class counts plus the
// top opcodes.
//
// Usage:
//
//	characterize -list
//	characterize -workload sha3 -window 20000000
//	characterize -workload spec-libquantum -top 15
//	characterize -workload xmr-isa -window 2000000
package main

import (
	"flag"
	"fmt"
	"os"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/microcode"
	"darkarts/internal/trace"
	"darkarts/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	list := fs.Bool("list", false, "list workloads")
	name := fs.String("workload", "sha3", "workload name")
	window := fs.Uint64("window", 8_000_000, "instructions to execute")
	top := fs.Int("top", 10, "top-N opcodes to print")
	if err := fs.Parse(args); err != nil {
		return err
	}

	entries := workload.ProgramRegistry()
	if *list {
		for _, e := range entries {
			fmt.Println(e.Name)
		}
		return nil
	}
	var build func() *isa.Program
	for _, e := range entries {
		if e.Name == *name {
			build = e.Build
		}
	}
	if build == nil {
		return fmt.Errorf("unknown workload %q (use -list)", *name)
	}
	prog := build()

	res, err := workload.CharacterizeProgram(*name, prog, *window)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %d instructions executed\n", *name, res.Executed)
	fmt.Printf("per 1B instructions:\n")
	fmt.Printf("  SL  %12d\n  SR  %12d\n  XOR %12d\n  RL  %12d\n  RR  %12d\n  OR  %12d\n",
		res.SL, res.SR, res.XOR, res.RL, res.RR, res.OR)
	fmt.Printf("  RSX %12d   RSXO %12d\n", res.RSX(), res.RSXO())

	// Top opcodes need a recorder pass (kept separate from the counter
	// path so the fast engine stays fast by default).
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	machine, err := cpu.New(cfg)
	if err != nil {
		return err
	}
	machine.InstallTagTable(microcode.RSXO())
	ctx, err := cpu.NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(false)
	core := machine.Core(0)
	core.SetObserver(rec)
	core.LoadContext(ctx)
	short := *window / 4
	if short > 2_000_000 {
		short = 2_000_000
	}
	var done uint64
	for done < short && !ctx.Halted {
		done += core.Run(short - done)
		if ctx.Halted && ctx.Fault == nil {
			ctx.Reset(prog, machine.Memory(), 0x100_0000)
			core.LoadContext(ctx)
		}
	}
	fmt.Printf("top opcodes (from a %d-instruction trace):\n", rec.Total())
	for _, oc := range rec.TopOps(*top) {
		fmt.Printf("  %-6s %10d (%.1f%%)\n", oc.Op, oc.Count, 100*float64(oc.Count)/float64(rec.Total()))
	}
	return nil
}
