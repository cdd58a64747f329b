package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// decodeFuzzProgram turns an arbitrary byte string into a structurally
// valid program: opcodes are mapped into the defined range, registers
// masked, and branch targets folded into the program. Termination is not
// guaranteed (loops are legal) — the harness bounds the run.
func decodeFuzzProgram(data []byte) *isa.Program {
	if len(data) < 4 {
		return nil
	}
	n := len(data) / 4
	if n > 400 {
		n = 400
	}
	ops := isa.AllOps()
	code := make([]isa.Inst, 0, n+1)
	for i := 0; i < n; i++ {
		b := data[i*4 : i*4+4]
		in := isa.Inst{
			Op:  ops[int(b[0])%len(ops)],
			Rd:  isa.Reg(b[1] % isa.NumRegs),
			Rs1: isa.Reg(b[2] % isa.NumRegs),
			Rs2: isa.Reg(b[3] % isa.NumRegs),
			Imm: int64(b[1])<<8 | int64(b[2]),
		}
		if in.Op.IsBranch() && in.Op != isa.RET {
			in.Imm = int64(int(b[3]) % (n + 1)) // in-range target
		}
		code = append(code, in)
	}
	code = append(code, isa.Inst{Op: isa.HALT})
	p := &isa.Program{Name: "fuzz", Code: code, DataSize: 4096}
	if p.Validate() != nil {
		return nil
	}
	return p
}

// FuzzExecutorNeverPanics feeds arbitrary well-formed programs to both
// engines: execution must end in HALT, a recorded fault, or budget
// exhaustion — never a panic, and never counter divergence on clean runs.
func FuzzExecutorNeverPanics(f *testing.F) {
	f.Add([]byte("seed-one-0123456789abcdef0123456789"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(make([]byte, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeFuzzProgram(data)
		if prog == nil {
			t.Skip()
		}
		run := func(mode Mode) (retired uint64, fault error) {
			cfg := DefaultConfig()
			cfg.Cores = 1
			cfg.Mode = mode
			machine, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := NewContext(prog, machine.Memory(), 0x100_0000)
			if err != nil {
				t.Fatal(err)
			}
			machine.Core(0).LoadContext(ctx)
			var budget uint64 = 200_000
			for budget > 0 && !ctx.Halted {
				ran := machine.Core(0).Run(budget)
				if ran == 0 && !ctx.Halted {
					t.Fatal("no progress without halt")
				}
				budget -= ran
			}
			return machine.Core(0).Counters().Retired(), ctx.Fault
		}
		fr, ff := run(ModeFast)
		dr, df := run(ModeDetailed)
		if (ff == nil) != (df == nil) {
			t.Fatalf("fault divergence: fast=%v detailed=%v", ff, df)
		}
		if ff == nil && fr != dr {
			// Both clean: instruction counts must agree (both either
			// halted or exhausted the same budget deterministically).
			t.Fatalf("retired divergence: fast=%d detailed=%d", fr, dr)
		}
	})
}

// hotLoopProgram generates a guaranteed-halting program around one hot
// loop of a few hundred iterations. The body mixes ALU, rotate, load and
// store instructions with data-dependent conditional skips, so the block
// engine sees blocks entered both at their head and after a skip, and
// both directions of each skip branch.
func hotLoopProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder("hotloop")
	bodyLen := 24 + rng.Intn(80)
	iters := int64(192 + rng.Intn(300))

	for r := isa.R0; r <= isa.R11; r++ {
		b.Movi(r, rng.Int63())
	}
	b.Movi(isa.R12, iters)
	b.Label("loop")

	reg := func() isa.Reg { return isa.Reg(rng.Intn(12)) }
	skips := 0
	for i := 0; i < bodyLen; i++ {
		switch rng.Intn(14) {
		case 0:
			b.Op3(isa.ADD, reg(), reg(), reg())
		case 1:
			b.Op3(isa.SUB, reg(), reg(), reg())
		case 2:
			b.Op3(isa.XOR, reg(), reg(), reg())
		case 3:
			b.Op3(isa.AND, reg(), reg(), reg())
		case 4:
			b.OpI(isa.ROLI, reg(), reg(), int64(rng.Intn(64)))
		case 5:
			b.OpI(isa.RORI, reg(), reg(), int64(rng.Intn(64)))
		case 6:
			b.OpI(isa.SHLI, reg(), reg(), int64(rng.Intn(64)))
		case 7:
			b.Op3(isa.MUL, reg(), reg(), reg())
		case 8:
			b.St(isa.R28, int64(rng.Intn(512))&^7, reg())
		case 9:
			b.Ld(reg(), isa.R28, int64(rng.Intn(512))&^7)
		case 10:
			b.OpI(isa.ROL32I, reg(), reg(), int64(rng.Intn(32)))
		case 11:
			// Data-dependent conditional skip over one instruction.
			lbl := fmt.Sprintf("skip%d", skips)
			skips++
			b.OpI(isa.ANDI, isa.R13, isa.R12, int64(1+rng.Intn(7)))
			b.Cmpi(isa.R13, 0)
			b.Jcc(isa.JE, lbl)
			b.OpI(isa.ADDI, reg(), reg(), int64(rng.Intn(1<<12)))
			b.Label(lbl)
			i += 3
		default:
			b.OpI(isa.ADDI, reg(), reg(), int64(rng.Intn(1<<20)))
		}
	}
	b.OpI(isa.SUBI, isa.R12, isa.R12, 1)
	b.Cmpi(isa.R12, 0)
	b.Jcc(isa.JNE, "loop")
	b.Halt()

	p := b.MustBuild()
	p.DataSize = 1024
	return p
}

// FuzzBlocksDifferential drives the block engine against the step engine
// over generated hot-loop programs, randomized slice sizes, and mid-run
// tag-table swaps, all derived from the fuzz input. A second machine wired
// to the first one's block store reruns the program at about half the
// slice size (never the same size), so it runs blocks the first machine
// decoded and decodes the entries the first never reached. Every
// observable the block-cache tests compare must match the step engine's at
// the same slice size: registers, flags, PC, fault state, memory, TLB and
// every counter.
func FuzzBlocksDifferential(f *testing.F) {
	f.Add(int64(1), uint64(1<<30), false)
	f.Add(int64(99), uint64(257), true)
	f.Add(int64(-7), uint64(13), true)
	tables := []*microcode.TagTable{
		microcode.RSX(), microcode.RSXO(), microcode.RotateOnly(),
	}
	f.Fuzz(func(t *testing.T, seed int64, slice uint64, swapTags bool) {
		if slice == 0 {
			slice = 1
		}
		prog := hotLoopProgram(rand.New(rand.NewSource(seed)))
		var step func(*CPU, uint64)
		if swapTags {
			step = func(m *CPU, total uint64) {
				m.InstallTagTable(tables[(total/311)%uint64(len(tables))])
			}
		}
		second := slice/2 + 1
		if second == slice { // slices of 1 and 2
			second++
		}
		store := NewSharedBlocks()
		for i, sl := range []uint64{slice, second} {
			plain := runBB(t, prog, engStep, sl, 0, step)
			cached := runBBOn(t, prog, engBlocks, store, sl, 0, step)
			requireSameOutcome(t, fmt.Sprintf("%s/machine %d/slice=%d", prog.Name, i, sl), cached, plain)
		}
	})
}
