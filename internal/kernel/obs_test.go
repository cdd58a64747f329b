package kernel_test

// Integration tests for the kernel's observability instrumentation: a live
// simulation must populate the registry coherently (counters agree with
// the kernel's own accessors), the procfs stats file must render the same
// registry, and a nil Config.Obs must disable everything without a trace.

import (
	"strings"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/miner"
	"darkarts/internal/obs"
)

// memProgram is a looping program with stack traffic so the per-core TLBs
// see both hits and misses, and the block cache serves its loop.
func memProgram() *isa.Program {
	b := isa.NewBuilder("memspin")
	b.Movi(isa.R1, 0x1234)
	b.Label("loop")
	b.Push(isa.R1)
	b.Pop(isa.R2)
	b.OpI(isa.ADDI, isa.R1, isa.R1, 1)
	b.Jmp("loop")
	return b.MustBuild()
}

func TestObsRegistryPopulatedByRun(t *testing.T) {
	k := newTestKernel(t, true)
	miner.SpawnMiner(k, miner.Monero, 0, 3, 1000)
	w, err := kernel.NewISAWorkload(memProgram(), k.Machine().Memory(), 0x300_0000, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w.Loop = true
	k.Spawn("memspin", 1000, w)
	k.Run(5 * time.Second)

	reg := k.Obs()
	if reg == nil {
		t.Fatal("DefaultConfig kernel has no registry")
	}
	mustValue := func(name, label string) float64 {
		t.Helper()
		v, ok := reg.Value(name, label)
		if !ok {
			t.Fatalf("metric %s{%s} not registered", name, label)
		}
		return v
	}

	quanta := mustValue("sched_quanta_total", "")
	wantQuanta := float64(5 * time.Second / (4 * time.Millisecond))
	if quanta != wantQuanta {
		t.Errorf("sched_quanta_total = %v, want %v", quanta, wantQuanta)
	}
	if par := mustValue("sched_parallel_quanta_total", ""); par != quanta {
		t.Errorf("parallel quanta = %v, want all %v (parallel-eligible kernel)", par, quanta)
	}
	if samples := mustValue("rsx_samples_total", ""); samples != float64(k.Samples()) {
		t.Errorf("rsx_samples_total = %v, Samples() = %d", samples, k.Samples())
	}
	alerts := mustValue("alerts_total", obs.Label("scope", "process")) +
		mustValue("alerts_total", obs.Label("scope", "session"))
	if alerts != float64(len(k.Alerts())) {
		t.Errorf("alerts_total = %v, Alerts() = %d", alerts, len(k.Alerts()))
	}
	if alerts == 0 {
		t.Error("scenario raised no alerts; instrumentation checks are vacuous")
	}
	if over := mustValue("detect_windows_over_total", ""); over != alerts {
		t.Errorf("detect_windows_over_total = %v, want %v", over, alerts)
	}
	if windows := mustValue("detect_windows_total", ""); windows < alerts {
		t.Errorf("detect_windows_total = %v < alerts %v", windows, alerts)
	}
	if spawned := mustValue("tasks_spawned_total", ""); spawned != 4 {
		t.Errorf("tasks_spawned_total = %v, want 4", spawned)
	}

	var busy, tlbHits, tlbMisses, retired float64
	var bbHits, bbMisses float64
	for i := 0; i < k.Machine().Cores(); i++ {
		busy += mustValue("sched_core_busy_ns_total", obs.CoreLabel(i))
		tlbHits += mustValue("tlb_hits_total", obs.CoreLabel(i))
		tlbMisses += mustValue("tlb_misses_total", obs.CoreLabel(i))
		retired += mustValue("sched_core_retired_total", obs.CoreLabel(i))
		bbHits += mustValue("bb_hits_total", obs.CoreLabel(i))
		bbMisses += mustValue("bb_misses_total", obs.CoreLabel(i))
		mustValue("bb_invalidations_total", obs.CoreLabel(i))
	}
	if busy <= 0 {
		t.Error("no core busy time recorded")
	}
	if tlbHits == 0 || tlbMisses == 0 {
		t.Errorf("TLB counters flat: hits=%v misses=%v (memspin pushes/pops every iteration)", tlbHits, tlbMisses)
	}
	if retired == 0 {
		t.Error("no retired instructions attributed to cores")
	}
	if pages, ok := reg.Value("mem_pages", ""); !ok || pages <= 0 {
		t.Errorf("mem_pages = %v, %v; want > 0", pages, ok)
	}

	// memspin's loop decodes once and then hits the block cache. Every
	// dispatch retires at least one instruction (none faults), so the
	// per-block length histogram counts each lookup once, and its sum
	// (guest instructions retired via blocks) cannot exceed total retire.
	if bbMisses == 0 || bbHits < bbMisses {
		t.Errorf("block cache counters hits=%v misses=%v, want a decoded, hit-dominated loop", bbHits, bbMisses)
	}
	var bbLenHist obs.Metric
	for _, m := range reg.Snapshot() {
		if m.Name == "bb_insts_per_block" {
			bbLenHist = m
		}
	}
	if float64(bbLenHist.Value) != bbHits+bbMisses {
		t.Errorf("bb_insts_per_block count = %d, want %v", bbLenHist.Value, bbHits+bbMisses)
	}
	if bbLenHist.Sum == 0 || float64(bbLenHist.Sum) > retired {
		t.Errorf("bb_insts_per_block sum = %d, want in (0, %v]", bbLenHist.Sum, retired)
	}

	// The alert pipeline must have measured a latency for every alert.
	var alertHist obs.Metric
	for _, m := range reg.Snapshot() {
		if m.Name == "alert_latency_ns" {
			alertHist = m
		}
	}
	if float64(alertHist.Value) != alerts {
		t.Errorf("alert_latency_ns count = %d, want %v", alertHist.Value, alerts)
	}

	// The tracer saw the spawns and the alerts.
	var sawSpawn, sawAlert bool
	for _, e := range reg.Tracer().Events() {
		switch e.Kind {
		case obs.EvTaskSpawn:
			sawSpawn = true
		case obs.EvAlert:
			sawAlert = true
		}
	}
	if !sawSpawn || !sawAlert {
		t.Errorf("trace missing events: spawn=%v alert=%v", sawSpawn, sawAlert)
	}
}

// TestProcStatsFile: the procfs stats view renders the live registry and
// reflects runtime tunable writes in the trace tail.
func TestProcStatsFile(t *testing.T) {
	k := newTestKernel(t, false)
	populate(t, k)
	if err := k.ProcFS().Write(kernel.ProcThreshold, "1500000000"); err != nil {
		t.Fatal(err)
	}
	k.Run(3 * time.Second)
	out, err := k.ProcFS().Read(kernel.ProcStats)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"[kernel]",
		"[cpu]",
		"sched_quanta_total",
		"rsx_delta_per_switch",
		`sched_core_busy_ns_total{core="0"}`,
		`bb_hits_total{core="0"}`,
		"bb_insts_per_block",
		"detect_windows_total",
		"[trace]",
		"tunable  sys/rsx/threshold_per_min=1500000000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats view missing %q:\n%s", want, out)
		}
	}
	found := false
	for _, p := range k.ProcFS().List() {
		if p == kernel.ProcStats {
			found = true
		}
	}
	if !found {
		t.Error("ProcStats missing from List()")
	}
}

// TestObsDisabled: Config.Obs = nil must run the whole pipeline with zero
// instrumentation and a readable "disabled" stats file.
func TestObsDisabled(t *testing.T) {
	machine, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultConfig()
	cfg.Obs = nil
	cfg.Parallel = true
	cfg.Tunables.Period = 2 * time.Second
	k := kernel.New(machine, cfg)
	miner.SpawnMiner(k, miner.Monero, 0, 2, 1000)
	k.Run(3 * time.Second)
	if k.Obs() != nil {
		t.Fatal("Obs() non-nil with instrumentation disabled")
	}
	if len(k.Alerts()) == 0 {
		t.Error("detection broken with obs disabled")
	}
	out, err := k.ProcFS().Read(kernel.ProcStats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "disabled") {
		t.Errorf("stats view does not say disabled:\n%s", out)
	}
}

// TestObsDifferentialSerialParallel: the simulated outputs stay
// bit-identical between serial and parallel runs even with instrumentation
// live, and the *deterministic* metrics (quanta, samples, windows, alerts,
// retired instructions) agree across modes — only host-time metrics may
// differ.
func TestObsDifferentialSerialParallel(t *testing.T) {
	run := func(parallel bool) *kernel.Kernel {
		k := newTestKernel(t, parallel)
		populate(t, k)
		k.Run(5 * time.Second)
		return k
	}
	sk, pk := run(false), run(true)
	for _, name := range []string{
		"sched_quanta_total", "rsx_samples_total", "detect_windows_total",
		"detect_windows_over_total", "tasks_spawned_total", "tasks_exited_total",
	} {
		sv, sok := sk.Obs().Value(name, "")
		pv, pok := pk.Obs().Value(name, "")
		if !sok || !pok || sv != pv {
			t.Errorf("%s: serial %v(%v) parallel %v(%v)", name, sv, sok, pv, pok)
		}
	}
	var sr, pr float64
	for i := 0; i < sk.Machine().Cores(); i++ {
		v, _ := sk.Obs().Value("sched_core_retired_total", obs.CoreLabel(i))
		sr += v
		v, _ = pk.Obs().Value("sched_core_retired_total", obs.CoreLabel(i))
		pr += v
	}
	if sr != pr {
		t.Errorf("total retired differs: serial %v parallel %v", sr, pr)
	}
}
