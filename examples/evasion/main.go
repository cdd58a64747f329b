// Evasion: walks through the attacker techniques of Sections III and VI —
// code obfuscation (rotate -> shift|or, per equations 6a/6b), multi-thread
// splitting, and throttling — and shows which the RSX defense withstands
// and where the plain threshold finally gives out (motivating the ML
// detector, see examples/mlpipeline).
package main

import (
	"fmt"
	"log"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/evasion"
	"darkarts/internal/isa"
	"darkarts/internal/machine"
	"darkarts/internal/miner"
)

func main() {
	// --- 1. Obfuscation at the instruction level -----------------------
	// Rewrite the Keccak permutation so it contains zero rotate
	// instructions, then show the aggregated RSX counter still sees it —
	// in fact the count grows, because each rotate becomes two shifts.
	prog, lay := cryptoalg.BuildKeccakFProgram()
	obf, err := evasion.ObfuscateRotates(prog, isa.R8, isa.R9)
	if err != nil {
		log.Fatal(err)
	}
	plain := rsxOfRun(prog, uint64(lay.State))
	hidden := rsxOfRun(obf, uint64(lay.State))
	fmt.Printf("keccakf RSX count: native %d, rotate-free obfuscated %d (grew %.0f%%)\n",
		plain, hidden, 100*float64(hidden-plain)/float64(plain))

	// --- 2. Multi-threaded splitting -----------------------------------
	sys, err := machine.New(fastOpts())
	if err != nil {
		log.Fatal(err)
	}
	miner.SpawnMiner(sys.Kernel(), miner.Monero, 0, 8, 1000) // 8 threads
	caught := sys.RunUntilAlert(2 * time.Minute)
	fmt.Printf("8-way split miner, no throttle: detected=%v (tgid aggregation)\n", caught)

	// --- 3. Throttling sweep -------------------------------------------
	for _, throttle := range []float64{0.30, 0.50, 0.70, 0.90} {
		sys, err := machine.New(fastOpts())
		if err != nil {
			log.Fatal(err)
		}
		miner.SpawnMiner(sys.Kernel(), miner.Monero, throttle, 4, 1000)
		caught := sys.RunUntilAlert(2 * time.Minute)
		profit := miner.EstimateProfit(1 - throttle)
		fmt.Printf("throttle %3.0f%%: detected=%-5v (attacker earns $%.2f/h)\n",
			throttle*100, caught, profit.USDPerHour)
	}
	fmt.Println("beyond ~56% throttle the plain threshold misses; see examples/mlpipeline for the ML extension, and note the collapsing profit.")
}

func fastOpts() machine.Options {
	opts := machine.DefaultOptions()
	opts.Kernel.Tunables.Period = 10 * time.Second
	return opts
}

// rsxOfRun executes one permutation and returns the RSX counter value.
func rsxOfRun(prog *isa.Program, stateOff uint64) uint64 {
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	machine, err := cpu.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := cpu.NewContext(prog, machine.Memory(), 0x100_0000)
	if err != nil {
		log.Fatal(err)
	}
	machine.Memory().Write(0x100_0000+stateOff, 1, 8)
	machine.Core(0).LoadContext(ctx)
	for !ctx.Halted {
		machine.Core(0).Run(10_000_000)
	}
	if ctx.Fault != nil {
		log.Fatal(ctx.Fault)
	}
	return machine.Core(0).Counters().RSX()
}
