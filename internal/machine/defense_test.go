package machine

import (
	"testing"
	"time"

	"darkarts/internal/kernel"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

func fastOptions() Options {
	opts := DefaultOptions()
	opts.Kernel.Tunables.Period = time.Second
	return opts
}

func TestMachineDetectsMinerAmongApps(t *testing.T) {
	m, err := New(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A typical cryptojacking victim is mostly idle: a few interactive
	// apps plus the miner. (With many CPU-bound tasks the scheduler
	// legitimately starves the miner below its full-speed rate.)
	for _, app := range workload.TableIIApps()[:3] {
		m.SpawnApp(app)
	}
	miner.SpawnMiner(m.Kernel(), miner.Monero, 0, 4, 1000)

	var alerted []kernel.Alert
	m.OnAlert(func(a kernel.Alert) { alerted = append(alerted, a) })
	if !m.RunUntilAlert(30 * time.Second) {
		t.Fatal("no alert with an unthrottled 4-thread miner running")
	}
	if len(alerted) == 0 || alerted[0].Name != "monero" {
		t.Errorf("alerts = %v", alerted)
	}
	// No benign app may have been flagged.
	for _, a := range m.Alerts() {
		if a.Name != "monero" {
			t.Errorf("benign app %s flagged", a.Name)
		}
	}
}

func TestMachineCleanRunStaysQuiet(t *testing.T) {
	m, err := New(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range workload.TableIIApps() {
		m.SpawnApp(app)
	}
	m.Run(20 * time.Second)
	if n := len(m.Alerts()); n != 0 {
		t.Errorf("%d alerts on a clean system", n)
	}
}

func TestMachineMicrocodeUpdate(t *testing.T) {
	m, err := New(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CPU().TagTable().Name(); got != "RSX" {
		t.Fatalf("initial tag set %q", got)
	}
	if err := m.UpdateMicrocode(2, "rsxo"); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU().TagTable().Name(); got != "RSXO" {
		t.Errorf("after update: %q", got)
	}
	if err := m.UpdateMicrocode(3, "nope"); err == nil {
		t.Error("unknown tag set accepted")
	}
}

func TestMachineISAProgram(t *testing.T) {
	m, err := New(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The SHA-3 kernel run flat out at a scaled rate must accumulate RSX.
	task, err := m.SpawnProgram("sha3", workload.SHA3Program(), 10_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2 * time.Second)
	if task.RSX().RSXCount() == 0 {
		t.Error("ISA program accumulated no RSX")
	}
}

func TestMachineTunablesViaProcFS(t *testing.T) {
	m, err := New(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ProcFS().Write(kernel.ProcThreshold, "1000000"); err != nil {
		t.Fatal(err)
	}
	// Even a modest app now trips the (absurdly low) threshold.
	m.SpawnApp(workload.TableIIApps()[0])
	if !m.RunUntilAlert(10 * time.Second) {
		t.Error("lowered threshold did not take effect")
	}
}

func TestMachineRejectsBadOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.CPU.Cores = 0
	if _, err := New(opts); err == nil {
		t.Error("bad CPU config accepted")
	}
	opts = DefaultOptions()
	opts.TagSet = "bogus"
	if _, err := New(opts); err == nil {
		t.Error("bad tag set accepted")
	}
}

func TestRotateOnlyAblationMissesObfuscatedMiner(t *testing.T) {
	// Ablation from DESIGN.md: a rotate-only counter cannot see a miner
	// whose rotates were rewritten to shift|or — the RSX set can.
	mk := func(tagSet string) int {
		opts := fastOptions()
		opts.TagSet = tagSet
		m, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Rate-model miner with rotate-free (obfuscated) Monero rates.
		prof := workload.AppProfile{
			Name: "obf-miner", Category: workload.CatCryptoFunc,
			RotatePerHour: 0,
			ShiftPerHour:  (10.2 + 2*83.1) * 1e9, // eq 6a/6b: rot -> 2 shifts
			XORPerHour:    248.3 * 1e9,
			ORPerHour:     (60 + 83.1) * 1e9,
			InstrPerHour:  1800e9,
			Seed:          1,
		}
		m.Kernel().Spawn(prof.Name, 1000, workload.NewAppWorkload(prof))
		m.Run(15 * time.Second)
		return len(m.Alerts())
	}
	if n := mk("rotate-only"); n != 0 {
		t.Errorf("rotate-only counter flagged the rotate-free miner (%d alerts)", n)
	}
	if n := mk("rsx"); n == 0 {
		t.Error("RSX counter missed the rotate-free miner")
	}
}
