// Microcode: the field-upgrade story of Section IV-A. The defense ships
// tracking RSX; an attacker re-encodes every XOR with OR logic
// (A xor B = (A and not B) or (not A and B)) and slips under the counter.
// The vendor responds with a firmware update that installs the RSXO tag
// table — no silicon change, no reboot of the analysis pipeline — and the
// re-encoded miner lights the counter back up.
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
	"darkarts/internal/workload"
)

func main() {
	// Demonstrate the attack at the instruction level first: a keccak
	// permutation whose XORs were re-encoded with OR logic.
	prog, lay := cryptoalg.BuildKeccakFProgram()
	obf, err := evasion.ObfuscateXorToOr(prog, isa.R8, isa.R9)
	if err != nil {
		log.Fatal(err)
	}
	underRSX := rsxCount(obf, uint64(lay.State), "rsx")
	underRSXO := rsxCount(obf, uint64(lay.State), "rsxo")
	plain := rsxCount(prog, uint64(lay.State), "rsx")
	fmt.Printf("keccakf counter values: native/RSX %d, xor->or obfuscated/RSX %d, obfuscated/RSXO %d\n",
		plain, underRSX, underRSXO)

	// Now at the system level: a miner-rate process with its XOR stream
	// re-encoded as OR. Under RSX tags it hides; after the microcode
	// update it does not.
	prof := workload.AppProfile{
		Name: "xor-free-miner", Category: workload.CatCryptoFunc,
		RotatePerHour: 83.1e9,
		ShiftPerHour:  10.2e9,
		XORPerHour:    0,
		ORPerHour:     (60 + 248.3) * 1e9, // xors re-encoded into ors
		InstrPerHour:  1800e9,
		Seed:          1,
	}

	opts := machine.DefaultOptions()
	opts.Kernel.Tunables.Period = 10 * time.Second
	sys, err := machine.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	sys.Kernel().Spawn(prof.Name, 1000, workload.NewAppWorkload(prof))
	detected := sys.RunUntilAlert(40 * time.Second)
	fmt.Printf("under RSX tags:  detected=%v (rotate+shift alone: %.2fB/min, under threshold)\n",
		detected, (prof.RotatePerHour+prof.ShiftPerHour)/60/1e9)

	// Vendor ships the firmware update.
	if err := sys.UpdateMicrocode(2, "rsxo"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("microcode update applied: decoder now tags %s\n", sys.CPU().TagTable())
	detected = sys.RunUntilAlert(40 * time.Second)
	fmt.Printf("under RSXO tags: detected=%v\n", detected)
}

func rsxCount(prog *isa.Program, stateOff uint64, tags string) uint64 {
	opts := machine.Options{CPU: func() cpu.Config { c := cpu.DefaultConfig(); c.Cores = 1; return c }(), TagSet: tags}
	sys, err := machine.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	hw := sys.CPU()
	ctx, err := cpu.NewContext(prog, hw.Memory(), 0x100_0000)
	if err != nil {
		log.Fatal(err)
	}
	hw.Memory().Write(0x100_0000+stateOff, 1, 8)
	hw.Core(0).LoadContext(ctx)
	for !ctx.Halted {
		hw.Core(0).Run(10_000_000)
	}
	return hw.Core(0).Counters().RSX()
}
