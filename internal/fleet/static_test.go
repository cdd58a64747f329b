package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"darkarts/internal/isa"
	"darkarts/internal/workload"
)

// Static admission policy tests: the gsa profile travels through Submit's
// Placement, the reject policy refuses flagged programs, and the flag
// policy's detection prior shortens a fleet miner's time-to-alert.

func TestCatalogIncludesMiners(t *testing.T) {
	f, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	names := f.Catalog()
	for _, want := range []string{"sha256", "keccak", "aes", "blake2b", "xmr-isa", "zec-isa"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("catalog missing %q (have %v)", want, names)
		}
	}
}

// TestCatalogCryptoProgramsAreBaked pins the catalog's crypto entries to
// the workload package's baked-input programs, whose simulated digests
// internal/workload's TestCryptoProgramsMatchReference checks against the
// native references.
func TestCatalogCryptoProgramsAreBaked(t *testing.T) {
	f, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	f.ensureCatalog()
	for name, build := range map[string]func() *isa.Program{
		"sha256":  workload.SHA2Program,
		"keccak":  workload.SHA3Program,
		"aes":     workload.AESProgram,
		"blake2b": workload.Blake2bProgram,
	} {
		if !reflect.DeepEqual(f.catalog[name], build()) {
			t.Errorf("catalog %q is not workload's baked %s program", name, build().Name)
		}
	}
}

func TestSubmitReportsStaticProfile(t *testing.T) {
	f, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := f.Submit(WorkloadSpec{Tenant: "acme", Kind: KindProgram, Program: "sha256"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Static == nil {
		t.Fatal("program placement carries no static profile")
	}
	if pl.Static.Flagged() {
		t.Errorf("sha256 statically flagged: risk %.3f", pl.Static.RiskScore)
	}
	pl, err = f.Submit(WorkloadSpec{Tenant: "attacker", Kind: KindProgram, Program: "xmr-isa"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Static == nil || !pl.Static.Flagged() || pl.Static.PoWLoops == 0 {
		t.Fatalf("xmr-isa static profile = %+v, want flagged with a PoW loop", pl.Static)
	}

	// Rate models have no ISA image: no profile.
	pl, err = f.Submit(WorkloadSpec{Tenant: "attacker", Kind: KindMiner})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Static != nil {
		t.Errorf("miner rate model got a static profile: %+v", pl.Static)
	}
}

func TestRejectPolicyRefusesFlaggedPrograms(t *testing.T) {
	cfg := testConfig(1)
	cfg.StaticPolicy = StaticReject
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(WorkloadSpec{Tenant: "acme", Kind: KindProgram, Program: "blake2b"}); err != nil {
		t.Fatalf("benign program rejected: %v", err)
	}
	_, err = f.Submit(WorkloadSpec{Tenant: "attacker", Kind: KindProgram, Program: "zec-isa"})
	if err == nil || !strings.Contains(err.Error(), "statically flagged") {
		t.Fatalf("flagged program not rejected: err=%v", err)
	}
	if got := f.om.gsaRejected.Value(); got != 1 {
		t.Errorf("gsa_rejected_total = %d, want 1", got)
	}
	if got := f.om.gsaFlagged.Value(); got != 1 {
		t.Errorf("gsa_flagged_total = %d, want 1", got)
	}
	if got := f.om.gsaAnalyzed.Value(); got != 2 {
		t.Errorf("gsa_analyzed_total = %d, want 2", got)
	}
}

// fleetMinerAlertTime submits the xmr-isa catalog program under the given
// policy and returns the first alert's simulated time.
func fleetMinerAlertTime(t *testing.T, policy string) time.Duration {
	t.Helper()
	cfg := testConfig(1)
	cfg.StaticPolicy = policy
	cfg.Machine.Kernel.Tunables.ThresholdPerMin = 60_000_000
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(WorkloadSpec{
		Tenant: "attacker", Kind: KindProgram, Program: "xmr-isa", IPS: 20_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.Run(f.cfg.Round)
		if alerts, _, _ := f.AlertsSince(0, "", 1); len(alerts) > 0 {
			return alerts[0].Time
		}
	}
	t.Fatalf("no alert within 20 rounds (policy %q)", policy)
	return 0
}

// TestFlagPolicyShortensFleetTimeToAlert: under the default flag policy a
// flagged catalog program alerts on the shortened static-prior window;
// under admit it takes the full period.
func TestFlagPolicyShortensFleetTimeToAlert(t *testing.T) {
	admit := fleetMinerAlertTime(t, StaticAdmit)
	flag := fleetMinerAlertTime(t, StaticFlag)
	t.Logf("fleet time-to-alert: admit %v, flag %v", admit, flag)
	if 2*flag >= admit {
		t.Errorf("flag policy did not shorten time-to-alert: %v vs %v", flag, admit)
	}
}
