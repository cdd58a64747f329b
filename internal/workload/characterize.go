package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// Characterization mirrors the paper's Section VI-A methodology: run each
// workload for a fixed instruction window with per-opcode performance
// counters enabled, then normalize to counts per one billion instructions.

// CharacterizationResult holds per-class counts normalized to 1e9
// instructions for one workload.
type CharacterizationResult struct {
	Name     string
	Executed uint64
	// Normalized per-1e9-instruction counts.
	SL, SR, XOR, RL, RR, OR uint64
}

// RSX returns rotates + shifts + xors per 1e9 instructions.
func (r CharacterizationResult) RSX() uint64 {
	return r.SL + r.SR + r.XOR + r.RL + r.RR
}

// RSXO additionally includes OR.
func (r CharacterizationResult) RSXO() uint64 { return r.RSX() + r.OR }

// CharacterizeProgram executes prog for window instructions on a fresh
// single-core fast-mode machine with characterization counters and returns
// normalized per-class counts. Programs that halt are restarted (they must
// be loop kernels or baked-input crypto programs).
func CharacterizeProgram(name string, prog *isa.Program, window uint64) (CharacterizationResult, error) {
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	cfg.Characterize = true
	machine, err := cpu.New(cfg)
	if err != nil {
		return CharacterizationResult{}, err
	}
	machine.InstallTagTable(microcode.RSXO())

	const base = 0x100_0000
	ctx, err := cpu.NewContext(prog, machine.Memory(), base)
	if err != nil {
		return CharacterizationResult{}, fmt.Errorf("characterize %s: %w", name, err)
	}
	core := machine.Core(0)
	core.LoadContext(ctx)

	var executed uint64
	for executed < window {
		n := core.Run(window - executed)
		executed += n
		if ctx.Halted {
			if ctx.Fault != nil {
				return CharacterizationResult{}, fmt.Errorf("characterize %s: %w", name, ctx.Fault)
			}
			ctx.Reset(prog, machine.Memory(), base)
			core.LoadContext(ctx)
			if n == 0 {
				// A program that halts without retiring anything would spin.
				return CharacterizationResult{}, fmt.Errorf("characterize %s: program makes no progress", name)
			}
		}
	}

	bank := core.Counters()
	scale := func(v uint64) uint64 {
		return uint64(float64(v) * 1e9 / float64(executed))
	}
	return CharacterizationResult{
		Name:     name,
		Executed: executed,
		SL:       scale(bank.OpCount(isa.SHL) + bank.OpCount(isa.SHLI)),
		SR:       scale(bank.OpCount(isa.SHR) + bank.OpCount(isa.SHRI) + bank.OpCount(isa.SAR) + bank.OpCount(isa.SARI)),
		XOR:      scale(bank.OpCount(isa.XOR) + bank.OpCount(isa.XORI)),
		RL:       scale(bank.OpCount(isa.ROL) + bank.OpCount(isa.ROLI) + bank.OpCount(isa.ROL32I)),
		RR:       scale(bank.OpCount(isa.ROR) + bank.OpCount(isa.RORI) + bank.OpCount(isa.ROR32I)),
		OR:       scale(bank.OpCount(isa.OR) + bank.OpCount(isa.ORI)),
	}, nil
}

// bakeU64 writes a build-time input into a program's data image.
func bakeU64(p *isa.Program, off int64, v uint64) {
	binary.LittleEndian.PutUint64(p.Data[off:], v)
}

func bakeBytes(p *isa.Program, off int64, b []byte) {
	copy(p.Data[off:], b)
}

// SHA2Program returns a self-contained looping SHA-256 workload: a baked
// multi-block message hashed to completion, restarting forever.
func SHA2Program() *isa.Program {
	msg := deterministicBytes(1024, 42)
	packed := cryptoalg.PackSHA256Blocks(msg)
	nblk := len(packed) / 64
	prog, lay := cryptoalg.BuildSHA256Program(nblk)
	bakeBytes(prog, lay.Msg, packed)
	bakeU64(prog, lay.NBlk, uint64(nblk))
	prog.Name = "sha2"
	return prog
}

// SHA3Program returns a self-contained looping SHA-3/Keccak workload.
func SHA3Program() *isa.Program {
	msg := deterministicBytes(1024, 43)
	padded := cryptoalg.PadKeccak(msg, 0x06)
	nblk := len(padded) / 136
	prog, lay := cryptoalg.BuildKeccakHashProgram(nblk)
	bakeBytes(prog, lay.Msg, padded)
	bakeU64(prog, lay.NBlk, uint64(nblk))
	prog.Name = "sha3"
	return prog
}

// AESProgram returns a self-contained looping AES-128 workload encrypting
// baked plaintext blocks.
func AESProgram() *isa.Program {
	key := deterministicBytes(16, 44)
	src := deterministicBytes(64*16, 45)
	prog, lay := cryptoalg.BuildAESProgram(key, len(src)/16)
	bakeBytes(prog, lay.Src, cryptoalg.PackAESBlocks(src))
	bakeU64(prog, lay.NBlk, uint64(len(src)/16))
	prog.Name = "aes"
	return prog
}

// Blake2bProgram returns a self-contained looping BLAKE2b workload.
func Blake2bProgram() *isa.Program {
	msg := deterministicBytes(1024, 46)
	records := cryptoalg.PackBlake2bRecords(msg)
	nrec := len(records) / 144
	prog, lay := cryptoalg.BuildBlake2bProgram(64, nrec)
	bakeBytes(prog, lay.Records, records)
	bakeU64(prog, lay.NRec, uint64(nrec))
	prog.Name = "blake2b"
	return prog
}

func deterministicBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}
