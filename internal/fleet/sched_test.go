package fleet

import (
	"encoding/json"
	"testing"
	"time"
)

// schedStream runs a fresh fleet with the standard test population under
// the given scheduler shaping and returns the JSON-encoded alert stream.
// JSON (not DeepEqual) so the comparison covers exactly what API readers
// see, byte for byte: Seq, Machine, Tenant, and the embedded kernel alert
// payload.
func schedStream(t *testing.T, shards int, noFF, noSteal bool, hook func(int)) []byte {
	t.Helper()
	cfg := testConfig(8)
	cfg.Shards = shards
	cfg.noFastForward = noFF
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.noSteal = noSteal
	f.hookRoundStart = hook
	seedWorkloads(t, f)
	f.Run(5 * time.Second)
	stream := f.AlertStream()
	if len(stream) == 0 {
		t.Fatal("no alerts (miners should trip the 2s window)")
	}
	b, err := json.Marshal(stream)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSchedulerDeterminism is the tentpole guarantee: the alert
// stream is byte-identical across worker counts, steal schedules, and the
// fast-forward ablation. The forced-steal run parks every thief worker
// briefly so worker 0 drains its own batch and then steals across all
// three foreign batches; the no-steal run confines each worker to its
// home batch — the two extreme schedules bracket every real one.
func TestFleetSchedulerDeterminism(t *testing.T) {
	stall := func(id int) {
		if id != 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	want := schedStream(t, 1, false, false, nil)
	for _, run := range []struct {
		name    string
		shards  int
		noFF    bool
		noSteal bool
		hook    func(int)
	}{
		{"shards2", 2, false, false, nil},
		{"shards4", 4, false, false, nil},
		{"shards4-forced-steal", 4, false, false, stall},
		{"shards4-no-steal", 4, false, true, nil},
		{"shards2-no-fastforward", 2, true, false, nil},
	} {
		got := schedStream(t, run.shards, run.noFF, run.noSteal, run.hook)
		if string(got) != string(want) {
			t.Errorf("%s: alert stream diverged from the shards=1 baseline\n got %s\nwant %s",
				run.name, got, want)
		}
	}
}

// TestFleetStealMetrics checks the scheduler's observability pair: a
// steal-heavy schedule records fleet_steals_total, and the standard
// population (app-only machines are quiescent) records
// fleet_fastforward_rounds_total; the ablation knob zeroes the latter.
func TestFleetStealMetrics(t *testing.T) {
	cfg := testConfig(8)
	cfg.Shards = 4
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.hookRoundStart = func(id int) {
		if id != 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	seedWorkloads(t, f)
	f.Run(3 * time.Second)
	if v, ok := f.Obs().Value("fleet_steals_total", ""); !ok || v == 0 {
		t.Errorf("forced-steal schedule recorded fleet_steals_total = %v, %v", v, ok)
	}
	if v, ok := f.Obs().Value("fleet_fastforward_rounds_total", ""); !ok || v == 0 {
		t.Errorf("app-only machines recorded fleet_fastforward_rounds_total = %v, %v", v, ok)
	}

	cfg = testConfig(8)
	cfg.Shards = 2
	cfg.noFastForward = true
	f, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedWorkloads(t, f)
	f.Run(3 * time.Second)
	if v, _ := f.Obs().Value("fleet_fastforward_rounds_total", ""); v != 0 {
		t.Errorf("noFastForward fleet still fast-forwarded %v machine-rounds", v)
	}
}

// TestFleetWorkerCoverage: with stealing disabled every worker advances
// exactly its home batch in the last round of a Run call, proving the
// claim cursors hand out each index once (no machine skipped, none
// advanced twice — the double-advance case would also trip the
// determinism test, but this pins the mechanism). The round is not a
// whole number of quanta, so it also pins the clock: machines advance to
// the absolute barrier, never a round length past their own overshot
// clock, and end within one quantum of the fleet clock.
func TestFleetWorkerCoverage(t *testing.T) {
	cfg := testConfig(10)
	cfg.Shards = 3
	ts := cfg.Machine.Kernel.TimeSlice
	if cfg.Round%ts == 0 {
		t.Fatalf("round %v is a whole number of %v quanta; the clock check needs a remainder", cfg.Round, ts)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.noSteal = true
	seedWorkloads(t, f)
	f.Run(2 * time.Second)
	for _, mem := range f.Members() {
		if now := mem.M.Now(); now < f.Now() || now >= f.Now()+ts {
			t.Errorf("machine %d at %v, want within [%v, %v)", mem.ID, now, f.Now(), f.Now()+ts)
		}
	}
	var claimed uint64
	for _, w := range f.workers {
		if w.claimed != uint64(w.hi-w.lo) || w.dueHi-w.dueLo != w.hi-w.lo {
			t.Errorf("worker %d claimed %d of %d due machines, home batch holds %d",
				w.id, w.claimed, w.dueHi-w.dueLo, w.hi-w.lo)
		}
		claimed += w.claimed
	}
	if claimed != uint64(len(f.members)) {
		t.Errorf("workers claimed %d machines in the last round, fleet has %d", claimed, len(f.members))
	}
}
