package fleet

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// testConfig returns a small fleet whose miners alert within a short run:
// a 2s monitoring window (threshold pro-rated) and 250ms rounds.
func testConfig(machines int) Config {
	cfg := DefaultConfig(machines)
	cfg.Round = 250 * time.Millisecond
	cfg.Machine.Kernel.Tunables.Period = 2 * time.Second
	cfg.Seed = 7
	return cfg
}

// seedWorkloads places the standard test population: one app per machine,
// a catalog program on every 3rd machine, a miner on every 4th.
func seedWorkloads(t testing.TB, f *Fleet) {
	t.Helper()
	n := len(f.Members())
	for i := 0; i < n; i++ {
		if _, err := f.Submit(WorkloadSpec{
			Tenant: "acme", Kind: KindApp, App: "Slack", Machine: i, Pin: true,
		}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := f.Submit(WorkloadSpec{
				Tenant: "acme", Kind: KindProgram, Program: "sha256", IPS: 50_000,
				Machine: i, Pin: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 0 {
			if _, err := f.Submit(WorkloadSpec{
				Tenant: "attacker", Kind: KindMiner, Machine: i, Pin: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFleetDeterminismAcrossShards is the fleet's core guarantee: the same
// seed and submission schedule produce a bit-identical alert stream and
// identical per-machine clocks, housekeeping cost and counter banks no
// matter how the machines are sharded. Shards 0 is the GOMAXPROCS
// default, the one width read from the host.
func TestFleetDeterminismAcrossShards(t *testing.T) {
	var (
		want      []Alert
		wantState []machineState
	)
	for _, shards := range []int{1, 2, 4, 7, 0} {
		cfg := testConfig(8)
		cfg.Shards = shards
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seedWorkloads(t, f)
		f.Run(5 * time.Second)
		got, gotState := f.AlertStream(), machineStates(f)
		if len(got) == 0 {
			t.Fatalf("shards=%d: no alerts (miners should trip the 2s window)", shards)
		}
		if want == nil {
			want, wantState = got, gotState
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: alert stream diverged from shards=1\n got %+v\nwant %+v",
				shards, got, want)
		}
		for i := range wantState {
			if !reflect.DeepEqual(gotState[i], wantState[i]) {
				t.Errorf("shards=%d: machine %d state %+v, shards=1 %+v", shards, i, gotState[i], wantState[i])
			}
		}
	}
}

// TestFleetDeterminismSharedBlocks verifies the fleet's decoded-block store
// is invisible to results: streams match with one store per fleet and one
// per machine.
func TestFleetDeterminismSharedBlocks(t *testing.T) {
	var want []Alert
	for _, noShare := range []bool{false, true} {
		cfg := testConfig(6)
		cfg.Shards = 2
		cfg.noSharedBlocks = noShare
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seedWorkloads(t, f)
		f.Run(5 * time.Second)
		got := f.AlertStream()
		if noShare {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("fleet-wide block store changed the alert stream\n got %+v\nwant %+v", got, want)
			}
			if f.SharedBlocks() != nil {
				t.Error("noSharedBlocks fleet still built a fleet-wide store")
			}
		} else {
			want = got
			if s := f.SharedBlocks().Stats(); s.Published == 0 {
				t.Error("sharing enabled but no blocks were published")
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no alerts to compare")
	}
}

// TestFleetThousandMachines is the scale floor: one process sustains 1000
// machines through multiple rounds and the alert stream stays canonical.
func TestFleetThousandMachines(t *testing.T) {
	cfg := testConfig(1000)
	cfg.Machine.Kernel.Tunables.Period = time.Second
	cfg.Round = 500 * time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rate-model workloads only: cheap enough for a unit test, real enough
	// to drive detection on every 8th machine.
	for i := 0; i < 1000; i++ {
		if _, err := f.Submit(WorkloadSpec{
			Tenant: "acme", Kind: KindApp, App: "Slack", Machine: i, Pin: true,
		}); err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			if _, err := f.Submit(WorkloadSpec{
				Tenant: "attacker", Kind: KindMiner, Machine: i, Pin: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Run(2 * time.Second)
	if got := f.Rounds(); got != 4 {
		t.Errorf("rounds = %d, want 4", got)
	}
	stream := f.AlertStream()
	if len(stream) < 125 {
		t.Errorf("alerts = %d, want >= 125 (125 infected machines, 1s windows)", len(stream))
	}
	for i := 1; i < len(stream); i++ {
		if stream[i].Seq != stream[i-1].Seq+1 {
			t.Fatalf("stream seq gap at %d: %d -> %d", i, stream[i-1].Seq, stream[i].Seq)
		}
		sameRoundOrLater := stream[i].Time >= stream[i-1].Time ||
			stream[i].Machine > stream[i-1].Machine
		if !sameRoundOrLater {
			t.Fatalf("stream not in canonical order at %d: %+v then %+v", i, stream[i-1], stream[i])
		}
	}
	for _, a := range stream {
		if a.Tenant != "attacker" {
			t.Fatalf("alert from unexpected tenant %q: %+v", a.Tenant, a)
		}
	}
}

// TestAlertsSince covers paging, tenant scoping, and trim accounting.
func TestAlertsSince(t *testing.T) {
	cfg := testConfig(8)
	cfg.AlertRetention = 3
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedWorkloads(t, f)
	f.Run(5 * time.Second)

	total := f.Obs()
	if total == nil {
		t.Fatal("fleet obs registry missing")
	}
	raised, ok := total.Value("fleet_alerts_total", "")
	if !ok || raised <= 3 {
		t.Fatalf("fleet_alerts_total = %v, want > retention (3)", raised)
	}
	dropped, _ := total.Value("fleet_alerts_dropped_total", "")
	if dropped != raised-3 {
		t.Errorf("dropped = %v, want %v", dropped, raised-3)
	}

	// A from-zero read reports everything before the window as trimmed.
	alerts, next, trimmed := f.AlertsSince(0, "", 100)
	if len(alerts) != 3 {
		t.Errorf("retained alerts = %d, want 3", len(alerts))
	}
	if trimmed != uint64(raised)-3 {
		t.Errorf("trimmed = %d, want %v", trimmed, raised-3)
	}
	// Cursor reuse is lossless and empty at the tip.
	more, next2, trimmed2 := f.AlertsSince(next, "", 100)
	if len(more) != 0 || trimmed2 != 0 || next2 != next {
		t.Errorf("tip read = (%d alerts, next %d, trimmed %d), want (0, %d, 0)",
			len(more), next2, trimmed2, next)
	}
	// Tenant scoping: every retained alert belongs to the attacker here,
	// and an unknown tenant sees nothing.
	scoped, _, _ := f.AlertsSince(0, "attacker", 100)
	if len(scoped) != len(alerts) {
		t.Errorf("attacker-scoped alerts = %d, want %d", len(scoped), len(alerts))
	}
	none, _, _ := f.AlertsSince(0, "nobody", 100)
	if len(none) != 0 {
		t.Errorf("unknown tenant saw %d alerts", len(none))
	}
}

// TestSubmitValidation rejects malformed specs up front.
func TestSubmitValidation(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := []WorkloadSpec{
		{Kind: KindApp, App: "Slack"},                                     // no tenant
		{Tenant: "t", Kind: "spreadsheet"},                                // unknown kind
		{Tenant: "t", Kind: KindApp, App: "NoSuchApp"},                    // unknown app
		{Tenant: "t", Kind: KindMiner, Coin: "dogecoin"},                  // unknown coin
		{Tenant: "t", Kind: KindMiner, Throttle: 1.5},                     // throttle out of range
		{Tenant: "t", Kind: KindMiner, Throttle: math.NaN()},              // NaN throttle (JSON cannot carry one)
		{Tenant: "t", Kind: KindProgram, Program: "md5"},                  // not in catalog
		{Tenant: "t", Kind: KindApp, App: "Slack", Machine: 9, Pin: true}, // no such machine
	}
	for _, spec := range bad {
		if _, err := f.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) succeeded, want error", spec)
		}
	}
	if n, _ := f.Obs().Value("fleet_submissions_total", ""); n != 0 {
		t.Errorf("failed submissions counted: fleet_submissions_total = %v", n)
	}
}

// TestPlacementSpreads checks the default least-loaded placement.
func TestPlacementSpreads(t *testing.T) {
	f, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		pl, err := f.Submit(WorkloadSpec{Tenant: "t", Kind: KindApp, App: "Slack"})
		if err != nil {
			t.Fatal(err)
		}
		seen[pl.Machine]++
		if pl.Deferred {
			t.Fatal("quiescent submission deferred")
		}
		if len(pl.Tgids) != 1 {
			t.Fatalf("placement tgids = %v", pl.Tgids)
		}
	}
	for id, n := range seen {
		if n != 2 {
			t.Errorf("machine %d got %d workloads, want 2", id, n)
		}
	}
}

// TestFleetObsRegistered ensures every documented fleet_* metric name is
// registered on a fresh fleet (the OBSERVABILITY.md doc-coverage test
// reads the same names).
func TestFleetObsRegistered(t *testing.T) {
	f, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	f.Handler() // registers the per-route API counters lazily
	names := map[string]bool{}
	for _, n := range f.Obs().Names() {
		names[n] = true
	}
	for _, want := range []string{
		"fleet_workers", "fleet_rounds_total",
		"fleet_machine_ms_total", "fleet_round_ns",
		"fleet_worker_busy_ns_total", "fleet_worker_idle_ns_total",
		"fleet_fastforward_rounds_total", "fleet_machine_advances_total",
		"fleet_alerts_total", "fleet_alert_batches_total",
		"fleet_alerts_dropped_total", "fleet_alert_latency_ms",
		"fleet_submissions_total", "fleet_tenants", "fleet_tasks_placed_total",
		"fleet_bbcache_shared_hits_total", "fleet_bbcache_shared_misses_total",
		"fleet_bbcache_shared_published_total", "fleet_bbcache_shared_evictions_total",
		"fleet_api_requests_total", "fleet_api_errors_total", "fleet_api_request_ns",
	} {
		if !names[want] {
			t.Errorf("metric %s not registered", want)
		}
	}
}
