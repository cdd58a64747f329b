package gsa_test

import (
	"testing"

	"darkarts/internal/gsa"
	"darkarts/internal/workload"
)

// scoreMargin is the documented separation between the lowest-scoring
// miner and the highest-scoring benign workload in the registry. Measured:
// miners land at ≈2.5 (PoW structure bonus + sustained RSX density) while
// the worst benign offenders — the sha2/blake2b kernels, statically as
// crypto-dense as the miners — stay below 0.6, lacking the PoW loop shape.
// The golden score manifest (internal/workload/guestlint_manifest.txt)
// pins the exact figures; this bound is the contract.
const scoreMargin = 1.5

// TestRegistrySweep is the acceptance criterion in test form: zero
// static-score inversions over the whole ISA program registry, with the
// documented margin between the populations.
func TestRegistrySweep(t *testing.T) {
	minMiner, maxBenign := 0.0, 0.0
	var minMinerName, maxBenignName string
	for _, e := range workload.ProgramRegistry() {
		p := e.Build()
		if p.Name != e.Name {
			t.Errorf("registry entry %q builds program named %q", e.Name, p.Name)
		}
		prof := gsa.Analyze(p)
		t.Logf("%-16s miner=%-5v risk=%.4f loops=%d pow=%d", e.Name, e.Miner, prof.RiskScore, prof.Loops, prof.PoWLoops)
		if e.Miner {
			if minMinerName == "" || prof.RiskScore < minMiner {
				minMiner, minMinerName = prof.RiskScore, e.Name
			}
			if prof.PoWLoops == 0 {
				t.Errorf("%s: no PoW loop detected in a miner", e.Name)
			}
			if !prof.Flagged() {
				t.Errorf("%s: miner not statically flagged (risk %.4f)", e.Name, prof.RiskScore)
			}
		} else {
			if prof.RiskScore > maxBenign {
				maxBenign, maxBenignName = prof.RiskScore, e.Name
			}
			if prof.PoWLoops != 0 {
				t.Errorf("%s: benign workload has %d PoW loops", e.Name, prof.PoWLoops)
			}
			if prof.Flagged() {
				t.Errorf("%s: benign workload statically flagged (risk %.4f)", e.Name, prof.RiskScore)
			}
		}
		if prof.Loops == 0 {
			t.Errorf("%s: no loops found in a looping workload", e.Name)
		}
	}
	if minMiner-maxBenign < scoreMargin {
		t.Errorf("separation margin %.4f < %v: weakest miner %s=%.4f vs strongest benign %s=%.4f",
			minMiner-maxBenign, scoreMargin, minMinerName, minMiner, maxBenignName, maxBenign)
	}
}
