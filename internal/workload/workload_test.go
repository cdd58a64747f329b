package workload

import (
	"bytes"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/microcode"
)

func TestSPECProgramsBuildAndValidate(t *testing.T) {
	for _, p := range SPEC2K6() {
		prog := p.Program()
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if prog.Len() < mixBlockSize/2 {
			t.Errorf("%s: suspiciously small program (%d insts)", p.Name, prog.Len())
		}
	}
}

func TestSPECProfileByName(t *testing.T) {
	if _, err := SPECProfileByName("libquantum"); err != nil {
		t.Error(err)
	}
	if _, err := SPECProfileByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCharacterizeSPECMatchesCalibration(t *testing.T) {
	// The measured per-1B counts must land close to the calibrated table
	// for the high-volume classes (resolution 100k per 1B).
	p, _ := SPECProfileByName("libquantum")
	res, err := CharacterizeProgram(p.Name, p.Program(), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	within := func(got, want uint64, tol float64) bool {
		lo := float64(want) * (1 - tol)
		hi := float64(want) * (1 + tol)
		return float64(got) >= lo && float64(got) <= hi
	}
	if !within(res.SL, p.SL, 0.25) {
		t.Errorf("SL = %d, calibrated %d", res.SL, p.SL)
	}
	if !within(res.XOR, p.XOR, 0.35) {
		t.Errorf("XOR = %d, calibrated %d", res.XOR, p.XOR)
	}
	if res.RL > 200_000 || res.RR > 200_000 {
		t.Errorf("rotates should be ~0: RL=%d RR=%d", res.RL, res.RR)
	}
}

func TestCharacterizeCryptoProgramsShape(t *testing.T) {
	// Core paper claim: the hash kernels tower over every SPEC mix in
	// XOR and rotate counts.
	sha3, err := CharacterizeProgram("sha3", SHA3Program(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sha2, err := CharacterizeProgram("sha2", SHA2Program(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	aes, err := CharacterizeProgram("aes", AESProgram(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	var maxSpecXOR, maxSpecRSX uint64
	for _, p := range SPEC2K6() {
		if p.XOR > maxSpecXOR {
			maxSpecXOR = p.XOR
		}
		if rsx := p.SL + p.SR + p.XOR + p.RL + p.RR; rsx > maxSpecRSX {
			maxSpecRSX = rsx
		}
	}
	if sha3.XOR <= maxSpecXOR*2 {
		t.Errorf("SHA-3 XOR %d not clearly above SPEC max %d", sha3.XOR, maxSpecXOR)
	}
	if sha2.RR == 0 {
		t.Error("SHA-2 shows no rotate-rights")
	}
	if aes.RL+aes.RR > 100_000 {
		t.Errorf("AES rotates = %d, want ~0", aes.RL+aes.RR)
	}
	if sha2.RSX() <= maxSpecRSX {
		t.Errorf("SHA-2 RSX %d not above SPEC max %d", sha2.RSX(), maxSpecRSX)
	}
	if sha3.RSX() <= maxSpecRSX {
		t.Errorf("SHA-3 RSX %d not above SPEC max %d", sha3.RSX(), maxSpecRSX)
	}
}

func TestBlake2bProgramCharacterizes(t *testing.T) {
	res, err := CharacterizeProgram("blake2b", Blake2bProgram(), 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.RR == 0 || res.XOR == 0 {
		t.Errorf("blake2b profile empty: %+v", res)
	}
}

func TestTableIIIAppCalibration(t *testing.T) {
	apps := TableIIApps()
	byName := map[string]AppProfile{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	// Table III: Ramme 5.2B(ish), Slack 0.9B, remaining apps ~1.3B total.
	if r := byName["Ramme"].RSXPerHour(); r < 5.0*bil || r > 5.5*bil {
		t.Errorf("Ramme RSX/h = %.2fB", r/bil)
	}
	if s := byName["Slack"].RSXPerHour(); s < 0.8*bil || s > 1.0*bil {
		t.Errorf("Slack RSX/h = %.2fB", s/bil)
	}
	var remaining float64
	for _, a := range apps {
		switch a.Name {
		case "Slack", "WhatsDesk", "Everpad", "AngryBirds", "Ramme":
		default:
			remaining += a.RSXPerHour()
		}
	}
	if remaining < 1.0*bil || remaining > 1.7*bil {
		t.Errorf("remaining apps RSX/h = %.2fB, want ~1.3B", remaining/bil)
	}
	// All apps combined must stay under 14B (Section VI-C).
	var total float64
	for _, a := range apps {
		total += a.RSXPerHour()
	}
	if total >= 14*bil {
		t.Errorf("combined app RSX %.1fB exceeds the paper's <14B", total/bil)
	}
}

func TestWalletsBelowRamme(t *testing.T) {
	ramme := 5.2 * bil
	for _, w := range CryptoWalletApps() {
		rsx := w.RSXPerHour()
		if rsx < 0.5*bil || rsx > 1.5*bil {
			t.Errorf("%s RSX/h = %.2fB outside Fig 16 range", w.Name, rsx/bil)
		}
		ratio := ramme / rsx
		if ratio < 3.4 || ratio > 10.5 {
			t.Errorf("%s Ramme ratio %.1f outside paper's 4.1x-9.7x ballpark", w.Name, ratio)
		}
		rsxo := w.RSXOPerHour()
		if rsxo <= rsx || rsxo > 1.8*bil {
			t.Errorf("%s RSXO/h = %.2fB", w.Name, rsxo/bil)
		}
	}
}

func TestRegistry153Composition(t *testing.T) {
	reg := Registry153()
	if len(reg) != 153 {
		t.Fatalf("registry has %d workloads", len(reg))
	}
	names := map[string]bool{}
	cryptoFuncs := 0
	for _, a := range reg {
		if names[a.Name] {
			t.Errorf("duplicate workload %q", a.Name)
		}
		names[a.Name] = true
		if a.Category == CatCryptoFunc {
			cryptoFuncs++
		}
	}
	if cryptoFuncs != 3 {
		t.Errorf("crypto functions = %d, want 3", cryptoFuncs)
	}
	// Only the sustained crypto functions may exceed the 2.5B/min threshold.
	for _, a := range reg {
		perMin := a.RSXPerHour() / 60
		if perMin > 2.5e9 && a.Category != CatCryptoFunc {
			t.Errorf("benign %s exceeds threshold at %.2fB/min", a.Name, perMin/1e9)
		}
		if a.Category == CatCryptoFunc && perMin <= 2.5e9 {
			t.Errorf("crypto function %s under threshold (%.2fB/min): FP model broken", a.Name, perMin/1e9)
		}
	}
}

func TestAppWorkloadChargesBank(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	cfg.Characterize = true
	machine, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewAppWorkload(AppProfile{
		Name: "t", RotatePerHour: 3600e6, ShiftPerHour: 2 * 3600e6,
		XORPerHour: 3600e6, ORPerHour: 3600e6, InstrPerHour: 100 * 3600e6,
		Seed: 1,
	})
	core := machine.Core(0)
	w.RunSlice(core, time.Second)
	// Per second: rot 1e6 + shift 2e6 + xor 1e6 = 4e6 (RSX excludes OR).
	got := core.Counters().RSX()
	if got < 2e6 || got > 8e6 {
		t.Errorf("RSX after 1s = %d, want ~4e6", got)
	}
	if core.Counters().Retired() == 0 {
		t.Error("no retired instructions charged")
	}
}

func TestAppWorkloadHonoursTagTable(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	machine, _ := cpu.New(cfg)
	p := AppProfile{Name: "t", ORPerHour: 3600e9, InstrPerHour: 3600e9, Seed: 2}

	w := NewAppWorkload(p)
	w.RunSlice(machine.Core(0), time.Second)
	rsxOnly := machine.Core(0).Counters().RSX()

	machine.InstallTagTable(microcode.RSXO())
	w2 := NewAppWorkload(p)
	w2.RunSlice(machine.Core(0), time.Second)
	withOR := machine.Core(0).Counters().RSX() - rsxOnly

	if rsxOnly != 0 {
		t.Errorf("OR counted under RSX tags: %d", rsxOnly)
	}
	if withOR == 0 {
		t.Error("OR not counted under RSXO tags")
	}
}

func TestSPECWorkloadUnderKernelStaysQuiet(t *testing.T) {
	// End-to-end: a real SPEC mix program scheduled by the kernel for
	// simulated seconds must never alert (it is RSX-light).
	cfg := cpu.DefaultConfig()
	machine, _ := cpu.New(cfg)
	kcfg := kernel.DefaultConfig()
	kcfg.Tunables.Period = time.Second
	k := kernel.New(machine, kcfg)

	p, _ := SPECProfileByName("povray")
	// A scaled-down instruction rate keeps host runtime bounded; the RSX
	// *fraction* — what the detector keys on relative to the threshold in
	// this test — is a property of the mix, not the rate.
	const scaledIPS = 20_000_000
	w, err := kernel.NewISAWorkload(p.Program(), machine.Memory(), 0x200_0000, scaledIPS)
	if err != nil {
		t.Fatal(err)
	}
	w.Loop = true
	k.Spawn("povray", 1000, w)
	k.Run(3 * time.Second)
	if n := len(k.Alerts()); n != 0 {
		t.Errorf("SPEC workload raised %d alerts", n)
	}
	task := k.Tasks()[0]
	if task.RSX().RSXCount() == 0 {
		t.Error("no RSX accumulated for SPEC task (sampling path broken)")
	}
}

var _ = isa.NOP // import anchor

// TestCryptoProgramsMatchReference runs each baked crypto workload (the
// fleet catalog's sha256, keccak, aes and blake2b entries) once to HALT on
// the simulated CPU and checks its output against cryptoalg's native Go
// reference over the same input. A program whose input or block count was
// never baked halts after a handful of instructions without hashing.
func TestCryptoProgramsMatchReference(t *testing.T) {
	shaMsg := deterministicBytes(1024, 42)
	_, shaLay := cryptoalg.BuildSHA256Program(len(cryptoalg.PackSHA256Blocks(shaMsg)) / 64)
	shaWant := cryptoalg.SHA256(shaMsg)

	kecMsg := deterministicBytes(1024, 43)
	_, kecLay := cryptoalg.BuildKeccakHashProgram(len(cryptoalg.PadKeccak(kecMsg, 0x06)) / 136)
	kecWant := cryptoalg.SHA3_256(kecMsg)

	aesKey, aesSrc := deterministicBytes(16, 44), deterministicBytes(64*16, 45)
	_, aesLay := cryptoalg.BuildAESProgram(aesKey, len(aesSrc)/16)
	aesWant := make([]byte, len(aesSrc))
	cryptoalg.AESEncryptECB(aesKey, aesWant, aesSrc)

	blaMsg := deterministicBytes(1024, 46)
	_, blaLay := cryptoalg.BuildBlake2bProgram(64, len(cryptoalg.PackBlake2bRecords(blaMsg))/144)
	blaWant := cryptoalg.Blake2b512(blaMsg)

	cases := []struct {
		prog   *isa.Program
		out    int64                   // data offset of the program's output
		decode func(raw []byte) []byte // guest word order to the reference's bytes
		want   []byte
	}{
		{SHA2Program(), shaLay.State, func(raw []byte) []byte {
			d := cryptoalg.UnpackSHA256Digest(raw)
			return d[:]
		}, shaWant[:]},
		{SHA3Program(), kecLay.State, nil, kecWant[:]},
		{AESProgram(), aesLay.Dst, cryptoalg.PackAESBlocks, aesWant},
		{Blake2bProgram(), blaLay.H, nil, blaWant[:]},
	}
	const base = 0x100_0000
	for _, c := range cases {
		cfg := cpu.DefaultConfig()
		cfg.Cores = 1
		machine, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := cpu.NewContext(c.prog, machine.Memory(), base)
		if err != nil {
			t.Fatal(err)
		}
		core := machine.Core(0)
		core.LoadContext(ctx)
		for !ctx.Halted {
			if core.Run(1_000_000) == 0 && !ctx.Halted {
				t.Fatalf("%s: no progress", c.prog.Name)
			}
		}
		if ctx.Fault != nil {
			t.Fatalf("%s faulted: %v", c.prog.Name, ctx.Fault)
		}
		got := machine.Memory().ReadBytes(base+uint64(c.out), len(c.want))
		if c.decode != nil {
			got = c.decode(got)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: simulated output %x != native reference %x", c.prog.Name, got, c.want)
		}
		if rsx := core.Counters().RSX(); rsx == 0 {
			t.Errorf("%s: hashed with zero RSX instructions", c.prog.Name)
		}
	}
}
