package kernel

import (
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/obs"
)

// Histogram bucket bounds. Fixed at registration (see DESIGN.md,
// "Observability"): host-time latencies span 1µs..100ms, per-quantum
// instruction counts span idle..tens of millions, and window RSX counts
// bracket the paper's 2.5e9/min threshold. Never mutated after init.
var (
	obsNsBuckets     = []uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	obsInstBuckets   = []uint64{0, 10_000, 100_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000}
	obsWindowBuckets = []uint64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 2_500_000_000, 10_000_000_000}
)

// kmetrics holds the kernel's pre-resolved observability handles plus the
// per-quantum scratch the scheduler phases communicate through. All
// handles are registered once at kernel construction, so the hot path
// never touches the registry lock; when Config.Obs is nil the kernel's om
// field is nil and every instrumentation site is one branch.
//
// Everything here is host-side telemetry (wall-clock timings, registry
// handles, per-quantum scratch): none of it feeds simulation results.
type kmetrics struct {
	reg *obs.Registry

	// Scheduler phase timing (host wall clock).
	quanta         *obs.Counter
	parallelQuanta *obs.Counter
	execNs         *obs.Counter
	mergeWaitNs    *obs.Counter
	mergeNs        *obs.Counter

	// Per-core execute-phase breakdown.
	coreBusyNs  []*obs.Counter
	coreIdleNs  []*obs.Counter
	coreRetired []*obs.Counter
	tlbHits     []*obs.Counter
	tlbMisses   []*obs.Counter

	// Per-core basic-block translation cache counters (fast engine).
	bbHits          []*obs.Counter
	bbMisses        []*obs.Counter
	bbInvalidations []*obs.Counter
	bbReplayed      []*obs.Counter
	bbLen           *obs.Histogram

	retiredPerQuantum *obs.Histogram

	// Context-switch RSX sampling (the paper's scheduler hook).
	samples      *obs.Counter
	rsxPerSwitch *obs.Histogram

	// Monitoring-window statistics.
	windows       *obs.Counter
	windowsOver   *obs.Counter
	windowsExempt *obs.Counter
	windowsStatic *obs.Counter
	windowRSX     *obs.Histogram

	// Alert pipeline.
	alertsProcess  *obs.Counter
	alertsSession  *obs.Counter
	alertLatencyNs *obs.Histogram

	tasksSpawned *obs.Counter
	tasksExited  *obs.Counter
	memPages     *obs.Gauge

	// Per-quantum scratch. coreBusy[i] is written only by whichever
	// goroutine claimed core i during execute (or the serial loop) and
	// read in the merge phase, so the plan→execute→merge barriers order
	// all accesses.
	coreBusy      []time.Duration
	retiredLast   []uint64
	tlbHitsLast   []uint64
	tlbMissesLast []uint64
	bbLast        []cpu.BBStats
	// crossTimes holds the host time of each threshold crossing this
	// quantum; latency is observed after alert callbacks are delivered.
	crossTimes []time.Time
}

func newKMetrics(reg *obs.Registry, cores int) *kmetrics {
	m := &kmetrics{
		reg: reg,
		quanta: reg.Counter(obs.Desc{Name: "sched_quanta_total", Layer: obs.LayerKernel,
			Unit: "quanta", Help: "scheduler quanta executed"}),
		parallelQuanta: reg.Counter(obs.Desc{Name: "sched_parallel_quanta_total", Layer: obs.LayerKernel,
			Unit: "quanta", Help: "quanta executed on per-core worker goroutines"}),
		execNs: reg.Counter(obs.Desc{Name: "sched_exec_ns_total", Layer: obs.LayerKernel,
			Unit: "ns", Help: "host time in the execute phase (all cores in flight)"}),
		mergeWaitNs: reg.Counter(obs.Desc{Name: "sched_merge_wait_ns_total", Layer: obs.LayerKernel,
			Unit: "ns", Help: "host time the scheduler blocked at the merge barrier"}),
		mergeNs: reg.Counter(obs.Desc{Name: "sched_merge_ns_total", Layer: obs.LayerKernel,
			Unit: "ns", Help: "host time in the deterministic merge phase"}),
		bbLen: reg.Histogram(obs.Desc{Name: "bb_insts_per_block", Layer: obs.LayerCPU,
			Unit: "instructions", Help: "instructions retired per basic-block dispatch (fast engine)"}, cpu.BBLenBounds),
		retiredPerQuantum: reg.Histogram(obs.Desc{Name: "sched_retired_per_quantum", Layer: obs.LayerKernel,
			Unit: "instructions", Help: "instructions retired per core per quantum"}, obsInstBuckets),
		samples: reg.Counter(obs.Desc{Name: "rsx_samples_total", Layer: obs.LayerKernel,
			Unit: "samples", Help: "context-switch RSX counter samples (scheduler hook runs)"}),
		rsxPerSwitch: reg.Histogram(obs.Desc{Name: "rsx_delta_per_switch", Layer: obs.LayerKernel,
			Unit: "instructions", Help: "RSX instructions observed per context-switch sample"}, obsInstBuckets),
		windows: reg.Counter(obs.Desc{Name: "detect_windows_total", Layer: obs.LayerKernel,
			Unit: "windows", Help: "monitoring windows completed and checked"}),
		windowsOver: reg.Counter(obs.Desc{Name: "detect_windows_over_total", Layer: obs.LayerKernel,
			Unit: "windows", Help: "windows whose RSX count exceeded the threshold"}),
		windowsExempt: reg.Counter(obs.Desc{Name: "detect_windows_exempt_total", Layer: obs.LayerKernel,
			Unit: "windows", Help: "over-threshold windows suppressed by an exemption"}),
		windowsStatic: reg.Counter(obs.Desc{Name: "detect_windows_static_total", Layer: obs.LayerKernel,
			Unit: "windows", Help: "windows checked at the shortened static-prior period"}),
		windowRSX: reg.Histogram(obs.Desc{Name: "detect_window_rsx", Layer: obs.LayerKernel,
			Unit: "instructions", Help: "RSX instructions per completed monitoring window"}, obsWindowBuckets),
		alertsProcess: reg.Counter(obs.Desc{Name: "alerts_total", Label: obs.Label("scope", "process"),
			Layer: obs.LayerKernel, Unit: "alerts", Help: "alerts raised, by aggregation scope"}),
		alertsSession: reg.Counter(obs.Desc{Name: "alerts_total", Label: obs.Label("scope", "session"),
			Layer: obs.LayerKernel, Unit: "alerts", Help: "alerts raised, by aggregation scope"}),
		alertLatencyNs: reg.Histogram(obs.Desc{Name: "alert_latency_ns", Layer: obs.LayerKernel,
			Unit: "ns", Help: "host latency from threshold crossing to alert emission"}, obsNsBuckets),
		tasksSpawned: reg.Counter(obs.Desc{Name: "tasks_spawned_total", Layer: obs.LayerKernel,
			Unit: "tasks", Help: "tasks ever spawned (processes, threads, children)"}),
		tasksExited: reg.Counter(obs.Desc{Name: "tasks_exited_total", Layer: obs.LayerKernel,
			Unit: "tasks", Help: "tasks that finished their workload and exited"}),
		memPages: reg.Gauge(obs.Desc{Name: "mem_pages", Layer: obs.LayerMem,
			Unit: "pages", Help: "4KB pages mapped in simulated physical memory"}),

		coreBusy:      make([]time.Duration, cores),
		retiredLast:   make([]uint64, cores),
		tlbHitsLast:   make([]uint64, cores),
		tlbMissesLast: make([]uint64, cores),
		bbLast:        make([]cpu.BBStats, cores),
	}
	for i := 0; i < cores; i++ {
		label := obs.CoreLabel(i)
		m.coreBusyNs = append(m.coreBusyNs, reg.Counter(obs.Desc{
			Name: "sched_core_busy_ns_total", Label: label, Layer: obs.LayerKernel,
			Unit: "ns", Help: "execute-phase host time the core spent running slices"}))
		m.coreIdleNs = append(m.coreIdleNs, reg.Counter(obs.Desc{
			Name: "sched_core_idle_ns_total", Label: label, Layer: obs.LayerKernel,
			Unit: "ns", Help: "execute-phase host time the core sat idle (barrier skew or no work)"}))
		m.coreRetired = append(m.coreRetired, reg.Counter(obs.Desc{
			Name: "sched_core_retired_total", Label: label, Layer: obs.LayerKernel,
			Unit: "instructions", Help: "instructions retired by the core under scheduler quanta"}))
		m.tlbHits = append(m.tlbHits, reg.Counter(obs.Desc{
			Name: "tlb_hits_total", Label: label, Layer: obs.LayerCPU,
			Unit: "hits", Help: "per-core page-translation cache hits"}))
		m.tlbMisses = append(m.tlbMisses, reg.Counter(obs.Desc{
			Name: "tlb_misses_total", Label: label, Layer: obs.LayerCPU,
			Unit: "misses", Help: "per-core page-translation cache misses (shared page-table walks)"}))
		m.bbHits = append(m.bbHits, reg.Counter(obs.Desc{
			Name: "bb_hits_total", Label: label, Layer: obs.LayerCPU,
			Unit: "blocks", Help: "fast-engine block lookups that found the block already decoded in the CPU's block store"}))
		m.bbMisses = append(m.bbMisses, reg.Counter(obs.Desc{
			Name: "bb_misses_total", Label: label, Layer: obs.LayerCPU,
			Unit: "blocks", Help: "blocks this core decoded into the CPU's block store"}))
		m.bbInvalidations = append(m.bbInvalidations, reg.Counter(obs.Desc{
			Name: "bb_invalidations_total", Label: label, Layer: obs.LayerCPU,
			Unit: "invalidations", Help: "per-program switches to a new block table after tag-table generation changes"}))
		m.bbReplayed = append(m.bbReplayed, reg.Counter(obs.Desc{
			Name: "bb_replayed_insts_total", Label: label, Layer: obs.LayerCPU,
			Unit: "instructions", Help: "instructions charged by replaying a recorded program pass instead of executing it"}))
	}
	return m
}

// beginQuantum resets the per-quantum execute-phase scratch.
func (m *kmetrics) beginQuantum() {
	for i := range m.coreBusy {
		m.coreBusy[i] = 0
	}
}

// observeQuantum folds one completed quantum into the registry: phase
// timings, per-core busy/idle split, retired-instruction and TLB deltas
// sampled from the hardware counter banks, and the memory footprint. It
// runs in the merge phase, under the kernel lock, after the execute
// barrier — so every per-core value is stable.
func (m *kmetrics) observeQuantum(k *Kernel, parallel bool, execWindow, mergeDur time.Duration) {
	m.quanta.Inc()
	if parallel {
		m.parallelQuanta.Inc()
	}
	m.execNs.Add(uint64(execWindow))
	m.mergeNs.Add(uint64(mergeDur))
	for i := range m.coreBusyNs {
		busy := m.coreBusy[i]
		m.coreBusyNs[i].Add(uint64(busy))
		if idle := execWindow - busy; idle > 0 {
			m.coreIdleNs[i].Add(uint64(idle))
		}
		core := k.machine.Core(i)
		retired := core.Counters().Retired()
		d := retired - m.retiredLast[i]
		m.retiredLast[i] = retired
		m.coreRetired[i].Add(d)
		m.retiredPerQuantum.Observe(d)
		hits, misses := core.TLBStats()
		m.tlbHits[i].Add(hits - m.tlbHitsLast[i])
		m.tlbMisses[i].Add(misses - m.tlbMissesLast[i])
		m.tlbHitsLast[i], m.tlbMissesLast[i] = hits, misses

		bb := core.BlockCacheStats()
		prev := &m.bbLast[i]
		m.bbHits[i].Add(bb.Hits - prev.Hits)
		m.bbMisses[i].Add(bb.Misses - prev.Misses)
		m.bbInvalidations[i].Add(bb.Invalidations - prev.Invalidations)
		m.bbReplayed[i].Add(bb.Replayed - prev.Replayed)
		var lenDelta [len(bb.LenCounts)]uint64
		for b := range bb.LenCounts {
			lenDelta[b] = bb.LenCounts[b] - prev.LenCounts[b]
		}
		m.bbLen.AddBuckets(lenDelta[:], bb.LenSum-prev.LenSum)
		*prev = bb
	}
	m.memPages.Set(int64(k.machine.Memory().Pages()))
}

// observeAlertLatency records threshold-crossing → emission latency for
// every alert of the just-completed quantum. It runs after the OnAlert
// callbacks, outside the kernel lock, on the single Run driver goroutine
// (the only writer of crossTimes).
func (m *kmetrics) observeAlertLatency() {
	if len(m.crossTimes) == 0 {
		return
	}
	//lint:ignore determinism host wall clock feeds the alert-latency metric only, never simulation state
	now := time.Now()
	for _, t0 := range m.crossTimes {
		m.alertLatencyNs.Observe(uint64(now.Sub(t0)))
	}
	m.crossTimes = m.crossTimes[:0]
}

// traceTask records a spawn/exit event and bumps the matching counter.
// Called under the kernel lock.
//
//cryptojack:locked
func (k *Kernel) traceTask(kind obs.EventKind, t *Task) {
	if k.om == nil {
		return
	}
	switch kind {
	case obs.EvTaskSpawn:
		k.om.tasksSpawned.Inc()
	case obs.EvTaskExit:
		k.om.tasksExited.Inc()
	default:
		// Other event kinds are recorded but have no dedicated counter.
	}
	k.om.reg.Tracer().Record(obs.Event{Time: k.now, Kind: kind, Arg: uint64(t.Pid), Note: t.Name})
}
