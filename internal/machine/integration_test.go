package machine

import (
	"testing"
	"time"

	"darkarts/internal/evasion"
	"darkarts/internal/isa"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

// isaMinerMachine boots a machine whose timescales are compressed so
// a real ISA mining program (interpreted at scaledIPS) crosses its
// detection window within an affordable number of host instructions.
func isaMinerMachine(t *testing.T, tagSet string) (*Machine, uint64) {
	t.Helper()
	const scaledIPS = 40_000_000 // simulated instructions per simulated second
	opts := DefaultOptions()
	opts.TagSet = tagSet
	opts.Kernel.TimeSlice = 50 * time.Millisecond
	opts.Kernel.Tunables.Period = 500 * time.Millisecond
	// Threshold scaled to the slowed clock: the real miner retires ~17%
	// RSX, so full-speed mining is ~0.17*40e6*60 = 408M RSX/min. A
	// threshold of 120M/min sits at ~30% of that — the same relative
	// position 2.5B holds against Monero's 5.7B on the real machine.
	opts.Kernel.Tunables.ThresholdPerMin = 120_000_000
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, scaledIPS
}

// TestFullStackISAMinerDetected is the deepest integration path: an actual
// mining program (Keccak + AES rounds per nonce) interpreted by the
// simulated CPU, whose decode-stage tags and ROB retirement feed the single
// hardware counter, which the scheduler samples at context switches into
// the tgid structure, which crosses the threshold and raises the alert.
// No rate models anywhere.
func TestFullStackISAMinerDetected(t *testing.T) {
	m, ips := isaMinerMachine(t, "rsx")
	header := miner.Header{Height: 9, Time: 7}.Marshal()
	prog, _ := miner.BuildISAMinerProgram(header, []byte("0123456789abcdef"), 0, 0, 1<<40)
	task, err := m.SpawnProgram("xmr-payload", prog, ips, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RunUntilAlert(5 * time.Second) {
		t.Fatalf("ISA miner not detected (tgid rsx=%d)", task.RSX().RSXCount())
	}
	if a := m.Alerts()[0]; a.Name != "xmr-payload" {
		t.Errorf("alert for %q", a.Name)
	}
}

// TestFullStackObfuscatedISAMinerDetected repeats the run with every rotate
// in the mining program rewritten to shift|or sequences (equations 6a/6b):
// the aggregated RSX counter must still catch it.
func TestFullStackObfuscatedISAMinerDetected(t *testing.T) {
	m, ips := isaMinerMachine(t, "rsx")
	header := miner.Header{Height: 9, Time: 7}.Marshal()
	prog, _ := miner.BuildISAMinerProgram(header, []byte("0123456789abcdef"), 0, 0, 1<<40)
	obf, err := evasion.ObfuscateRotates(prog, isa.R8, isa.R9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnProgram("xmr-obf", obf, ips, true); err != nil {
		t.Fatal(err)
	}
	if !m.RunUntilAlert(5 * time.Second) {
		t.Fatal("rotate-free ISA miner evaded the RSX counter")
	}
}

// TestLiveMicrocodeSwitch verifies a firmware update takes effect while
// tasks are running: an OR-heavy workload is invisible under RSX tags and
// visible under RSXO.
func TestLiveMicrocodeSwitch(t *testing.T) {
	b := isa.NewBuilder("or-storm")
	b.Movi(isa.R1, 0x55)
	b.Label("l")
	for i := 0; i < 64; i++ {
		b.Op3(isa.OR, isa.R2, isa.R1, isa.R1)
	}
	b.Jmp("l")
	prog := b.MustBuild()

	opts := DefaultOptions()
	opts.Kernel.Tunables.Period = time.Second
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	task, err := m.SpawnProgram("or-storm", prog, 20_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2 * time.Second)
	before := task.RSX().RSXCount()
	if before != 0 {
		t.Fatalf("OR counted under RSX tags: %d", before)
	}
	if err := m.UpdateMicrocode(2, "rsxo"); err != nil {
		t.Fatal(err)
	}
	m.Run(2 * time.Second)
	if after := task.RSX().RSXCount(); after == 0 {
		t.Error("microcode update did not take effect on a running task")
	}
}

// TestManyTenantsOneMiner scales the task count: 40 benign tenants from the
// registry plus one throttled miner; the miner must be the only alert.
func TestManyTenantsOneMiner(t *testing.T) {
	opts := DefaultOptions()
	opts.Kernel.Tunables.Period = 2 * time.Second
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Interactive tenants only: a desktop with CPU-bound batch jobs pinned
	// on every core would legitimately starve (and slow) the miner below
	// its full-speed signature.
	spawned := 0
	for _, p := range workload.Registry153() {
		if p.Category == workload.CatBenchmark || p.Category == workload.CatCryptoFunc {
			continue
		}
		m.SpawnApp(p)
		spawned++
		if spawned == 40 {
			break
		}
	}
	// Unthrottled: hiding in the tenant crowd rather than via duty cycle.
	// (Adding a throttle on top of 40 competing tenants pushes the actual
	// mining rate below threshold — the attacker simply mines less.)
	minerTasks := miner.SpawnMiner(m.Kernel(), miner.Monero, 0, 4, 1000)
	m.Run(20 * time.Second)

	alerts := m.Alerts()
	if len(alerts) == 0 {
		t.Fatal("miner hidden among 40 tenants was not detected")
	}
	for _, a := range alerts {
		if a.Tgid != minerTasks[0].Tgid {
			t.Errorf("benign tenant %q flagged (tgid %d)", a.Name, a.Tgid)
		}
	}
}
