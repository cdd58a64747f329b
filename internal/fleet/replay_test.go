package fleet

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// runCatalogFleet runs a mixed-shaped fleet for 9 s: on every machine a
// Table II app and a catalog program at 50k IPS (all six programs, in
// turn), and a 4-thread Monero miner on machine 5. At 4 s every machine
// takes a firmware update to the RSXO tag table. noBlockCache puts every
// core on the per-instruction reference engine, which never replays.
func runCatalogFleet(t *testing.T, noBlockCache bool) (horizonRun, uint64) {
	t.Helper()
	cfg := testConfig(12)
	cfg.Shards = 2
	cfg.Machine.CPU.NoBlockCache = noBlockCache
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"Slack", "Everpad", "Ramme"}
	catalog := f.Catalog()
	for i := range f.Members() {
		for _, spec := range []WorkloadSpec{
			{Tenant: "acme", Kind: KindApp, App: apps[i%len(apps)], Machine: i, Pin: true},
			{Tenant: "acme", Kind: KindProgram, Program: catalog[i%len(catalog)], IPS: 50_000, Machine: i, Pin: true},
		} {
			if _, err := f.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := f.Submit(WorkloadSpec{Tenant: "attacker", Kind: KindMiner, Machine: 5, Pin: true}); err != nil {
		t.Fatal(err)
	}
	f.Run(4 * time.Second)
	for _, m := range f.Members() {
		if err := m.M.UpdateMicrocode(2, "rsxo"); err != nil {
			t.Fatal(err)
		}
	}
	f.Run(5 * time.Second)

	stream := f.AlertStream()
	if len(stream) == 0 {
		t.Fatal("no alerts: the miner must alert")
	}
	var run horizonRun
	if run.stream, err = json.Marshal(stream); err != nil {
		t.Fatal(err)
	}
	run.machines = machineStates(f)
	var replayed uint64
	for _, m := range f.Members() {
		for i := 0; i < m.M.CPU().Cores(); i++ {
			replayed += m.M.CPU().Core(i).BlockCacheStats().Replayed
		}
	}
	return run, replayed
}

// TestFleetReplayMatchesExecution holds pass replay to the fleet's
// determinism contract: a fleet whose catalog kernels replay their
// recorded passes must produce the byte-identical alert stream, and the
// identical per-machine clocks, housekeeping cost and counter banks, as
// the same fleet executing every instruction on the reference engine.
func TestFleetReplayMatchesExecution(t *testing.T) {
	want, _ := runCatalogFleet(t, true)
	got, replayed := runCatalogFleet(t, false)
	if replayed == 0 {
		t.Fatal("no instructions were replayed")
	}
	if string(got.stream) != string(want.stream) {
		t.Errorf("alert stream diverged from execution\n got %s\nwant %s", got.stream, want.stream)
	}
	for i := range want.machines {
		if !reflect.DeepEqual(got.machines[i], want.machines[i]) {
			t.Errorf("machine %d state %+v, executed %+v", i, got.machines[i], want.machines[i])
		}
	}
}
