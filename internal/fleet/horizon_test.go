package fleet

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// horizonRun is what one way of driving the horizon population produced:
// the JSON-encoded alert stream and a per-machine state snapshot.
type horizonRun struct {
	stream   []byte
	machines []machineState
}

// machineState is the externally observable state of one member: clock,
// housekeeping cost, and every core's counter bank.
type machineState struct {
	Now      time.Duration
	Overhead uint64
	Banks    [][]uint64
}

// machineStates snapshots every member of f, in ID order.
func machineStates(f *Fleet) []machineState {
	var out []machineState
	for _, mem := range f.Members() {
		s := machineState{Now: mem.M.Now(), Overhead: mem.M.Kernel().SampleOverheadCycles()}
		c := mem.M.CPU()
		for i := 0; i < c.Cores(); i++ {
			b := c.Core(i).Counters()
			hist := b.Histogram()
			s.Banks = append(s.Banks, append([]uint64{b.RSX(), b.Retired(), b.Cycles()}, hist[:]...))
		}
		out = append(out, s)
	}
	return out
}

// runHorizonFleet builds an idle-heavy 16-machine fleet with 250ms rounds
// and 2s windows, plants miners whose window crossings fall on either side
// of a round barrier, and catalog programs at 50k IPS: kernels that replay
// their passes (alone, or beside an app that later gains a deferred miner)
// and xmr-isa, which never does. It runs 6s more either as one Run call
// (long), as one Run call per round (every machine advanced every round),
// or with fast-forward ablated. At the round that starts at 2s the hook
// submits two deferred workloads: a miner onto an idle machine the long
// run has parked, and a two-thread miner onto an app machine in the middle
// of its window. A long run with fast-forward must end with the machines
// whose only ISA work is replay parked.
func runHorizonFleet(t *testing.T, long, noFF bool) horizonRun {
	t.Helper()
	cfg := testConfig(16) // 250ms rounds, 2s windows
	cfg.Shards = 2
	cfg.noFastForward = noFF
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(spec WorkloadSpec) Placement {
		t.Helper()
		pl, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	// Spawned at 0: rate-model apps, and a miner on a high machine ID
	// whose crossing quantum [1996ms, 2000ms) ends exactly at a barrier.
	for _, m := range []int{0, 8} {
		submit(WorkloadSpec{Tenant: "acme", Kind: KindApp, App: "Slack", Machine: m, Pin: true})
	}
	submit(WorkloadSpec{Tenant: "attacker", Kind: KindMiner, Machine: 13, Pin: true})
	replaying := map[int]string{}
	for _, p := range []struct {
		machine int
		prog    string
	}{{0, "keccak"}, {4, "sha256"}, {8, "blake2b"}, {10, "aes"}} {
		replaying[p.machine] = p.prog
		submit(WorkloadSpec{Tenant: "acme", Kind: KindProgram, Program: p.prog, IPS: 50_000, Machine: p.machine, Pin: true})
	}
	submit(WorkloadSpec{Tenant: "acme", Kind: KindProgram, Program: "xmr-isa", IPS: 50_000, Machine: 15, Pin: true})
	// Spawned at 100ms: a miner on a low machine ID whose crossings fall
	// mid-round, so the stream interleaves it with machine 13's.
	f.Run(100 * time.Millisecond)
	submit(WorkloadSpec{Tenant: "attacker", Kind: KindMiner, Machine: 2, Pin: true})
	// Spawned at 252ms: its crossing quantum [2248ms, 2252ms) straddles
	// the 2250ms barrier.
	f.Run(150 * time.Millisecond)
	submit(WorkloadSpec{Tenant: "attacker", Kind: KindMiner, Machine: 6, Pin: true})

	// The hook runs on whichever worker claims first, so it records
	// errors instead of failing off the test goroutine.
	var (
		once     sync.Once
		deferred []Placement
		hookErr  error
	)
	f.hookRoundStart = func(int) {
		if f.Now() != 2*time.Second {
			return
		}
		once.Do(func() {
			for _, spec := range []WorkloadSpec{
				{Tenant: "late", Kind: KindMiner, Machine: 11, Pin: true},
				{Tenant: "late", Kind: KindMiner, Threads: 2, Machine: 8, Pin: true},
			} {
				pl, err := f.Submit(spec)
				if err != nil {
					hookErr = err
					return
				}
				deferred = append(deferred, pl)
			}
		})
	}
	const span = 6 * time.Second
	if long {
		f.Run(span)
	} else {
		for i := time.Duration(0); i < span; i += cfg.Round {
			f.Run(cfg.Round)
		}
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if len(deferred) != 2 || !deferred[0].Deferred || !deferred[1].Deferred {
		t.Fatalf("hook submissions = %+v, want two deferred placements", deferred)
	}
	if long && !noFF {
		// The last round advanced every machine; a fast-forwarded one
		// holds a horizon past its clock. Machine 15 runs xmr-isa.
		for _, mem := range f.Members() {
			prog, replays := replaying[mem.ID]
			if !replays && mem.ID != 15 {
				continue
			}
			if parked := mem.horizon > mem.M.Now(); parked != replays {
				t.Errorf("machine %d (%s) parked = %v at the end of the run, want %v", mem.ID, prog, parked, replays)
			}
		}
	}

	stream := f.AlertStream()
	tenants := map[string]int{}
	for _, a := range stream {
		tenants[a.Tenant]++
	}
	if tenants["attacker"] < 6 || tenants["late"] == 0 {
		t.Fatalf("alerts by tenant %v: want every planted and deferred miner to alert", tenants)
	}
	var run horizonRun
	if run.stream, err = json.Marshal(stream); err != nil {
		t.Fatal(err)
	}
	run.machines = machineStates(f)
	return run
}

// TestFleetHorizonDifferential holds event-horizon round skipping to the
// fleet's determinism contract: one long Run call, which leaves machines
// parked across rounds with no event, must produce the byte-identical
// alert stream and the identical per-machine clocks, counters and
// housekeeping cost as one Run call per round and as the fast-forward
// ablation, both of which advance every machine every round — including
// around deferred submissions onto parked machines.
func TestFleetHorizonDifferential(t *testing.T) {
	want := runHorizonFleet(t, false, false)
	for _, run := range []struct {
		name       string
		long, noFF bool
	}{
		{"long-run", true, false},
		{"long-run-no-fastforward", true, true},
	} {
		got := runHorizonFleet(t, run.long, run.noFF)
		if string(got.stream) != string(want.stream) {
			t.Errorf("%s: alert stream diverged from per-round Run calls\n got %s\nwant %s", run.name, got.stream, want.stream)
		}
		for i := range want.machines {
			if !reflect.DeepEqual(got.machines[i], want.machines[i]) {
				t.Errorf("%s: machine %d state %+v, per-round Run calls %+v", run.name, i, got.machines[i], want.machines[i])
			}
		}
	}
}

// TestFleetSkipsIdleRounds: on an idle-heavy fleet a long Run call
// advances far fewer machines than machines x rounds, the skipped
// machine-rounds still count as fast-forwarded, and only the rounds with
// an event advance any machine.
func TestFleetSkipsIdleRounds(t *testing.T) {
	cfg := testConfig(64)
	cfg.Shards = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedIdleHeavy(t, f)
	var mu sync.Mutex
	busyRounds := map[time.Duration]bool{}
	f.hookRoundStart = func(int) {
		mu.Lock()
		busyRounds[f.Now()] = true
		mu.Unlock()
	}
	f.Run(5 * time.Second)
	machineRounds := float64(64 * f.Rounds())
	advances, _ := f.Obs().Value("fleet_machine_advances_total", "")
	ff, _ := f.Obs().Value("fleet_fastforward_rounds_total", "")
	if advances >= machineRounds/4 {
		t.Errorf("fleet_machine_advances_total = %v of %v machine-rounds; idle machines were not skipped", advances, machineRounds)
	}
	if ff != machineRounds {
		t.Errorf("fleet_fastforward_rounds_total = %v, want every one of the %v machine-rounds", ff, machineRounds)
	}
	// First and last rounds, plus the rounds holding the apps' window
	// crossings at 2s and 4s.
	if n := len(busyRounds); n != 4 {
		t.Errorf("machines advanced in %d of %d rounds, want 4", n, f.Rounds())
	}
}
