package machine

import (
	"testing"
	"time"

	"darkarts/internal/kernel"
	"darkarts/internal/workload"
)

// spawnMinerTTA runs the xmr-isa miner on a fresh machine and returns its
// first alert. With analyzed=true the program goes through static analysis
// first (SpawnAnalyzedProgram), so its thread group carries the gsa prior
// and is checked on shortened windows.
func spawnMinerTTA(t *testing.T, analyzed bool) kernel.Alert {
	t.Helper()
	opts := testOptions()
	// Low enough that the miner's RSX rate trips every window, including
	// the divisor-shortened ones.
	opts.Kernel.Tunables.ThresholdPerMin = 60_000_000
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.XMRMinerProgram()
	if analyzed {
		_, prof, err := m.SpawnAnalyzedProgram(prog.Name, prog, 20_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !prof.Flagged() {
			t.Fatalf("xmr-isa not statically flagged (risk %.3f)", prof.RiskScore)
		}
	} else {
		if _, err := m.SpawnProgram(prog.Name, prog, 20_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if !m.RunUntilAlert(20 * time.Second) {
		t.Fatalf("no alert within 20s (analyzed=%v)", analyzed)
	}
	return m.Alerts()[0]
}

// TestStaticPriorShortensTimeToAlert measures the detection improvement the
// static prior buys: a statically-flagged miner is confirmed on windows of
// Period/StaticPriorDivisor, so its first alert lands a divisor-factor
// sooner than the identical unanalyzed run. The measured figures are
// recorded in EXPERIMENTS.md.
func TestStaticPriorShortensTimeToAlert(t *testing.T) {
	plain := spawnMinerTTA(t, false)
	fast := spawnMinerTTA(t, true)
	t.Logf("time-to-alert: unanalyzed %v, with static prior %v", plain.Time, fast.Time)

	if plain.StaticPrior || plain.StaticRisk != 0 {
		t.Errorf("unanalyzed alert carries a static prior: %+v", plain)
	}
	if !fast.StaticPrior {
		t.Errorf("analyzed alert not confirmed on the shortened window: %+v", fast)
	}
	if fast.StaticRisk < 1 {
		t.Errorf("analyzed alert static risk = %.3f, want >= flag threshold 1", fast.StaticRisk)
	}
	// Divisor is 4; demand at least a 2x improvement so scheduler quantum
	// rounding never flakes the assertion.
	if 2*fast.Time >= plain.Time {
		t.Errorf("static prior did not shorten time-to-alert: %v vs %v", fast.Time, plain.Time)
	}
}
