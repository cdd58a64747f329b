package fleet

import (
	"encoding/json"
	"testing"
	"time"
	"unsafe"
)

// schedStream runs a fresh fleet with the standard test population under
// the given scheduler shaping and returns the JSON-encoded alert stream.
// JSON (not DeepEqual) so the comparison covers exactly what API readers
// see, byte for byte: Seq, Machine, Tenant, and the embedded kernel alert
// payload.
func schedStream(t *testing.T, shards int, noFF bool, hook func(int)) []byte {
	t.Helper()
	cfg := testConfig(8)
	cfg.Shards = shards
	cfg.noFastForward = noFF
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
// stream is byte-identical across worker counts, claim orders, and the
// fast-forward ablation. The skewed runs stall one side at its first
// claim of every round: stalling every worker but 0 leaves the caller to
// advance nearly the whole due list, stalling worker 0 hands it to the
// others — the two extreme schedules bracket every real one.
func TestFleetSchedulerDeterminism(t *testing.T) {
	stallIf := func(stalled func(id int) bool) func(int) {
		return func(id int) {
			if stalled(id) {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	want := schedStream(t, 1, false, nil)
	for _, run := range []struct {
		name   string
		shards int
		noFF   bool
		hook   func(int)
	}{
		{"shards2", 2, false, nil},
		{"shards4", 4, false, nil},
		{"shards4-stall-others", 4, false, stallIf(func(id int) bool { return id != 0 })},
		{"shards4-stall-caller", 4, false, stallIf(func(id int) bool { return id == 0 })},
		{"shards2-no-fastforward", 2, true, nil},
	} {
		got := schedStream(t, run.shards, run.noFF, run.hook)
		if string(got) != string(want) {
			t.Errorf("%s: alert stream diverged from the shards=1 baseline\n got %s\nwant %s",
				run.name, got, want)
		}
	}
}

// TestFleetFastForwardMetrics checks the scheduler's fast-forward
// counter: the standard population (app-only machines are quiescent)
// records fleet_fastforward_rounds_total, and the ablation knob zeroes it.
func TestFleetFastForwardMetrics(t *testing.T) {
	cfg := testConfig(8)
	cfg.Shards = 4
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedWorkloads(t, f)
	f.Run(3 * time.Second)
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

// TestFleetWorkerCoverage: in the last round of a Run call every machine
// is due, and the workers' claims add up to exactly the due count — the
// pool's cursor hands out each index once (no machine skipped, none
// advanced twice; the double-advance case would also trip the determinism
// test, but this pins the mechanism). The round is not a whole number of
// quanta, so it also pins the clock: machines advance to the absolute
// barrier, never a round length past their own overshot clock, and end
// within one quantum of the fleet clock.
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
	seedWorkloads(t, f)
	f.Run(2 * time.Second)
	for _, mem := range f.Members() {
		if now := mem.M.Now(); now < f.Now() || now >= f.Now()+ts {
			t.Errorf("machine %d at %v, want within [%v, %v)", mem.ID, now, f.Now(), f.Now()+ts)
		}
	}
	if len(f.due) != len(f.members) {
		t.Fatalf("last round had %d machines due, fleet has %d", len(f.due), len(f.members))
	}
	var claimed uint64
	for _, st := range f.stats {
		claimed += st.claimed
	}
	if claimed != uint64(len(f.due)) {
		t.Errorf("workers claimed %d machines in the last round, %d were due", claimed, len(f.due))
	}
}

// TestWorkerStatsFillOneCacheLine: workers write their own stats entry
// once per machine, so an entry must fill a 64-byte line by itself; a
// field added without shrinking the pad would put two workers' writes on
// one line again.
func TestWorkerStatsFillOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(workerStats{}); n != 64 {
		t.Errorf("workerStats is %d bytes, want 64 (adjust its pad)", n)
	}
}
