package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/obs"
	"darkarts/internal/pool"
)

// AlertScope identifies which aggregation level tripped the threshold.
type AlertScope string

// Alert scopes.
const (
	// ScopeProcess is the paper's per-thread-group detection.
	ScopeProcess AlertScope = "process"
	// ScopeSession is the process-tree extension (session_aggregation).
	ScopeSession AlertScope = "session"
)

// Alert is a cryptojacking detection event (Figure 3, step 4).
type Alert struct {
	Time       time.Duration `json:"time"` // simulated time of the alert
	Pid        int           `json:"pid"`
	Tgid       int           `json:"tgid"`
	Name       string        `json:"name"`
	Scope      AlertScope    `json:"scope"`
	RSXInWin   uint64        `json:"rsx_in_window"` // RSX instructions observed in the monitoring window
	RatePerMin float64       `json:"rate_per_min"`  // normalized rate that tripped the threshold
	// StaticRisk is the thread group's static-analysis prior (0 when none
	// was stamped); StaticPrior records whether the shortened static-prior
	// window confirmed this alert.
	StaticRisk  float64 `json:"static_risk,omitempty"`
	StaticPrior bool    `json:"static_prior,omitempty"`
}

// String renders the alert as the user-visible message.
func (a Alert) String() string {
	return fmt.Sprintf("[%8.1fs] ALERT cryptojacking suspected: %s (pid %d, tgid %d): %.2fB RSX inst/min",
		a.Time.Seconds(), a.Name, a.Pid, a.Tgid, a.RatePerMin/1e9)
}

// Config configures the simulated kernel.
type Config struct {
	// TimeSlice is the scheduler quantum (default 4ms, CFS-ish).
	TimeSlice time.Duration
	// Tunables are the initial detection parameters.
	Tunables Tunables
	// SampleCost is the per-context-switch overhead, in cycles, of the RSX
	// housekeeping (counter read, tgid_rsx_t update, window check). It
	// feeds the performance-overhead experiments; zero means free.
	SampleCost uint64
	// Parallel executes each quantum's packed slices through a worker
	// pool (internal/pool): the scheduler goroutine and up to one helper
	// goroutine per spare hardware thread claim whole cores off a shared
	// cursor. Accounting still runs after the execute barrier in plan
	// order, so results are bit-identical to serial execution. On a
	// single-hardware-thread host the pool has no helper, and the quantum
	// degrades to a lean sweep with no goroutine round-trips. The kernel
	// silently falls back to serial when the machine is single-core, runs
	// the detailed engine (cross-core MESI/L2 state makes interleaving
	// semantically meaningful), or has a retirement observer attached.
	Parallel bool
	// Obs is the metrics registry the kernel instruments itself into:
	// scheduler phase timings, per-core busy/idle split, TLB and
	// retirement deltas, window statistics, and alert latency (see
	// OBSERVABILITY.md for the catalogue). nil disables all
	// instrumentation — every site degrades to a single branch.
	// DefaultConfig attaches a fresh registry.
	Obs *obs.Registry // host-side telemetry, never read by simulation
}

// DefaultConfig returns a kernel configured like the paper's prototype,
// with parallel quantum execution enabled.
func DefaultConfig() Config {
	return Config{
		TimeSlice:  4 * time.Millisecond,
		Tunables:   DefaultTunables(),
		SampleCost: 400,
		Parallel:   true,
		Obs:        obs.NewRegistry(),
	}
}

// placement is one planned time slice: task runs on core this quantum.
type placement struct {
	core int
	task *Task
}

// Kernel is the simulated operating system: it owns the task list, the
// ready queue, and the per-context-switch RSX sampling.
//
// Run/RunUntilAlert must be driven from one goroutine at a time, but the
// copy-on-read accessors (Alerts, Tasks, Samples, Now, TopRSX, ProcFS
// reads) are safe to call concurrently with a running simulation: the
// scheduler takes mu for the plan→execute→merge span of every quantum and
// the accessors take the same lock. Serial and parallel quanta differ only
// in which goroutines run each core's slices; the merge and the alert
// delivery that follows it are the same path in both modes.
type Kernel struct {
	machine  *cpu.CPU
	cfg      Config
	tunables Tunables // guarded by mu

	nextPid int     // guarded by mu
	tasks   []*Task // guarded by mu
	// runq[runqHead:] is the ready queue. Popping advances the head cursor
	// instead of reslicing so the backing array survives across quanta;
	// rebuildRunq compacts the consumed prefix away, keeping the scheduler
	// allocation-free at steady state.
	runq     []*Task // guarded by mu
	runqHead int     // guarded by mu

	now      time.Duration // guarded by mu
	coreLast []uint64      // last RSX counter reading per core

	alerts  []Alert     // guarded by mu
	onAlert func(Alert) // host callback, re-registered by the owner
	procfs  *ProcFS     // view over the kernel, rebuilt by New
	// samples counts context-switch housekeeping invocations (for the
	// overhead model).
	samples uint64 // guarded by mu

	// mu guards tasks, runq, alerts, samples, now, tunables, and all
	// TgidRSX window state against the concurrent accessors above.
	mu sync.Mutex

	// Quantum scratch state, reused to keep the scheduler allocation-free.
	plan []placement
	// coreStart[c] is the index of core c's first slice in plan: buildPlan
	// packs core by core, so core c runs plan[coreStart[c]:coreStart[c+1]].
	coreStart []int
	deltas    []uint64 // per-plan-entry RSX deltas measured during execution
	// ffScratch snapshots the ready queue while fast-forward eligibility is
	// probed, so an ineligible probe can restore the queue exactly.
	ffScratch []*Task

	// pool runs the parallel execute phase, one core per item; nil when
	// serial. Host-side execution machinery: the pool shape never
	// influences results (bit-identical to serial).
	pool *pool.Pool

	// om holds the pre-resolved observability handles (nil when
	// Config.Obs is nil; see obs.go). Host-side telemetry only.
	om *kmetrics
}

// New returns a kernel managing the given machine. A zero TimeSlice
// selects 4ms and a zero Period selects DefaultTunables. New does not
// check the tunables: the caller must pass ones that satisfy
// Tunables.Validate for the resolved time slice, as machine.New does.
func New(machine *cpu.CPU, cfg Config) *Kernel {
	if cfg.TimeSlice <= 0 {
		cfg.TimeSlice = 4 * time.Millisecond
	}
	if cfg.Tunables.Period <= 0 {
		cfg.Tunables = DefaultTunables()
	}
	k := &Kernel{
		machine:   machine,
		cfg:       cfg,
		tunables:  cfg.Tunables,
		nextPid:   1000,
		coreLast:  make([]uint64, machine.Cores()),
		coreStart: make([]int, machine.Cores()+1),
	}
	if cfg.Obs != nil {
		k.om = newKMetrics(cfg.Obs, machine.Cores())
	}
	k.procfs = &ProcFS{k: k}
	return k
}

// Obs returns the kernel's metrics registry (nil when observability is
// disabled). The registry's render methods are safe to call while the
// simulation runs.
func (k *Kernel) Obs() *obs.Registry { return k.cfg.Obs }

// TimeSlice returns the scheduler quantum.
func (k *Kernel) TimeSlice() time.Duration { return k.cfg.TimeSlice }

// ProcFS returns the tunables filesystem.
func (k *Kernel) ProcFS() *ProcFS { return k.procfs }

// Machine returns the managed CPU.
func (k *Kernel) Machine() *cpu.CPU { return k.machine }

// Tunables returns the live tunable values.
func (k *Kernel) Tunables() Tunables {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.tunables
}

// Now returns the current simulated time.
func (k *Kernel) Now() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Alerts returns all alerts raised so far (copy). Safe to call while the
// simulation is running on another goroutine.
func (k *Kernel) Alerts() []Alert {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Alert, len(k.alerts))
	copy(out, k.alerts)
	return out
}

// OnAlert registers a callback invoked synchronously for each alert, in
// alert order, after the quantum that raised it completes: Now() inside
// the callback is the alert's Time.
func (k *Kernel) OnAlert(fn func(Alert)) { k.onAlert = fn }

// Samples returns how many context-switch housekeeping operations ran.
func (k *Kernel) Samples() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.samples
}

// Spawn creates a new process (fresh thread group) running w.
func (k *Kernel) Spawn(name string, uid int, w Workload) *Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextPid++
	t := doFork(k.nextPid, cloneArgs{name: name, uid: uid, workload: w})
	t.rsxPtr.windowStart = k.now
	t.sessPtr.windowStart = k.now
	k.tasks = append(k.tasks, t)
	k.runq = append(k.runq, t)
	k.traceTask(obs.EvTaskSpawn, t)
	return t
}

// CloneThread creates a light-weight process sharing parent's thread group:
// the Listing 2 path where rsx_ptr is inherited rather than allocated.
func (k *Kernel) CloneThread(parent *Task, w Workload) *Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextPid++
	t := doFork(k.nextPid, cloneArgs{
		parent: parent, sameTgid: true,
		name: parent.Name, uid: parent.UID, workload: w,
	})
	k.tasks = append(k.tasks, t)
	k.runq = append(k.runq, t)
	k.traceTask(obs.EvTaskSpawn, t)
	return t
}

// SpawnChildProcess forks a new process (fresh thread group) that remains
// in the parent's session: its RSX stream aggregates into the parent's
// session structure when the session_aggregation tunable is on — defeating
// miners that split work across fork()ed workers instead of threads.
func (k *Kernel) SpawnChildProcess(parent *Task, name string, w Workload) *Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextPid++
	t := doFork(k.nextPid, cloneArgs{
		parent: parent, sameTgid: false,
		name: name, uid: parent.UID, workload: w,
	})
	t.rsxPtr.windowStart = k.now
	k.tasks = append(k.tasks, t)
	k.runq = append(k.runq, t)
	k.traceTask(obs.EvTaskSpawn, t)
	return t
}

// Tasks returns all tasks ever created (including exited ones). Safe to
// call while the simulation is running on another goroutine.
func (k *Kernel) Tasks() []*Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Task, len(k.tasks))
	copy(out, k.tasks)
	return out
}

// ParallelActive reports whether Run will execute quanta on per-core
// worker goroutines (the Parallel knob is set and no serial-fallback
// condition applies right now).
func (k *Kernel) ParallelActive() bool { return k.parallelEligible() }

// parallelEligible checks the serial-fallback conditions. The detailed
// engine shares MESI and L2 state across cores, so its cross-core
// interleaving is semantically meaningful and must stay serialized;
// retirement observers are not required to be safe for concurrent cores.
func (k *Kernel) parallelEligible() bool {
	if !k.cfg.Parallel || k.machine.Cores() < 2 {
		return false
	}
	if k.machine.Config().Mode != cpu.ModeFast {
		return false
	}
	for i := 0; i < k.machine.Cores(); i++ {
		if k.machine.Core(i).Observer() != nil {
			return false
		}
	}
	return true
}

// runCoreSlices runs core c's run of the plan, in pack order, sampling
// the core's RSX counter after each slice (the paper's context-switch
// read). It is the only routine that executes planned slices: the serial
// sweep, the execute pool and fast-forward's crossing quanta all call it.
// It touches only per-core state: the core, its counter bank, its
// coreLast entry, its deltas slots, and (when instrumented) its coreBusy
// scratch slot — so distinct cores run concurrently without
// synchronization.
func (k *Kernel) runCoreSlices(c int) {
	core := k.machine.Core(c)
	last := k.coreLast[c]
	var t0 time.Time
	if k.om != nil {
		//lint:ignore determinism host wall clock feeds the busy-time metric only, never simulation state
		t0 = time.Now()
	}
	for i := k.coreStart[c]; i < k.coreStart[c+1]; i++ {
		k.plan[i].task.workload.RunSlice(core, k.cfg.TimeSlice)
		cur := core.Counters().RSX()
		k.deltas[i] = cur - last
		last = cur
	}
	if k.om != nil {
		k.om.coreBusy[c] = time.Since(t0)
	}
	k.coreLast[c] = last
}

// startPool opens the execute pool when the parallel path is eligible,
// returning a func that closes it. The pool has min(cores, GOMAXPROCS)
// workers: the scheduler goroutine is worker 0, so the extra goroutines
// only cover the hardware parallelism beyond it — on a
// single-hardware-thread host the pool has no extra goroutine and quanta
// run without any goroutine round-trips. The pool lives for one Run call,
// so kernels never leak goroutines.
func (k *Kernel) startPool() (stop func()) {
	if !k.parallelEligible() {
		return func() {}
	}
	//lint:ignore determinism sizes the execute pool only; the serial/parallel differential tests pin results equal at -cpu 1 and 4
	workers := min(k.machine.Cores(), runtime.GOMAXPROCS(0))
	k.pool = pool.New(workers, func(_, c int) { k.runCoreSlices(c) })
	return func() {
		k.pool.Close()
		k.pool = nil
	}
}

// Run is RunTo(Now()+d).
func (k *Kernel) Run(d time.Duration) { k.RunTo(k.Now() + d) }

// RunTo advances the simulation to the first quantum boundary at or past
// the absolute simulated time end, scheduling runnable tasks round-robin
// across all cores in time-slice quanta.
func (k *Kernel) RunTo(end time.Duration) {
	stop := k.startPool()
	defer stop()
	for k.Now() < end {
		k.quantum()
	}
}

// RunUntilAlert runs until the first alert or until d elapses; it reports
// whether an alert fired. The check sits at the quantum barrier, so the
// call returns on the exact quantum the alert fires, with its accounting
// complete — no alerts are lost or duplicated across the barrier.
func (k *Kernel) RunUntilAlert(d time.Duration) bool {
	stop := k.startPool()
	defer stop()
	end := k.Now() + d
	for k.Now() < end {
		if k.quantum() > 0 {
			return true
		}
	}
	return false
}

// quantum runs one time slice on every core in three phases:
//
//  1. plan: pick tasks for all cores (a task occupies at most one core);
//  2. execute: run every planned slice and sample per-slice RSX deltas —
//     core by core (serial) or via the execute pool (parallel);
//  3. merge: rebuild the ready queue, then apply the per-slice accounting
//     (counter deltas, window checks, alerts) in plan order.
//
// Only phase 2 is concurrent, and it touches exclusively per-core state;
// accounting always applies in the fixed plan order, so serial and
// parallel execution produce bit-identical results. The quantum's alerts
// are delivered before it returns.
//
// It returns the number of alerts this quantum raised.
func (k *Kernel) quantum() int {
	k.mu.Lock()
	base := len(k.alerts)
	k.buildPlan()
	var execStart time.Time
	if k.om != nil {
		//lint:ignore determinism host wall clock feeds the phase-timing metrics only, never simulation state
		execStart = time.Now()
		k.om.beginQuantum()
	}
	k.execute()
	var mergeStart time.Time
	if k.om != nil {
		//lint:ignore determinism host wall clock feeds the phase-timing metrics only, never simulation state
		mergeStart = time.Now()
	}
	k.rebuildRunq()
	k.accountPlan()
	if k.om != nil {
		k.om.observeQuantum(k, k.pool != nil, mergeStart.Sub(execStart), time.Since(mergeStart))
	}
	k.now += k.cfg.TimeSlice
	fired := k.alerts[base:len(k.alerts):len(k.alerts)]
	k.mu.Unlock()
	k.deliver(fired)
	return len(fired)
}

// execute is the execute phase: every core's run of the plan through
// runCoreSlices, core by core on the calling goroutine (skipping cores
// with nothing planned), or one core per item of the execute pool when
// one is open.
func (k *Kernel) execute() {
	if k.pool == nil {
		for c := range k.machine.Cores() {
			if k.coreStart[c] < k.coreStart[c+1] {
				k.runCoreSlices(c)
			}
		}
		return
	}
	wait := k.pool.Run(k.machine.Cores())
	if k.om != nil {
		k.om.mergeWaitNs.Add(uint64(wait))
	}
}

// deliver runs the OnAlert callback for each alert of fired, in order.
// Callers release k.mu first so callbacks may call the accessors.
func (k *Kernel) deliver(fired []Alert) {
	if k.onAlert != nil {
		for _, a := range fired {
			k.onAlert(a)
		}
	}
	if k.om != nil {
		k.om.observeAlertLatency()
	}
}

// buildPlan picks tasks for all cores before any of them run so that a
// task can occupy at most one core per quantum. A core packs tasks until
// their slice shares fill the quantum: CPU-bound work claims a whole
// core, while interactive (mostly I/O-blocked) tasks share one.
//
//cryptojack:locked
func (k *Kernel) buildPlan() {
	k.plan = k.plan[:0]
	var pending *Task // task that did not fit the previous core

	for core := 0; core < k.machine.Cores(); core++ {
		k.coreStart[core] = len(k.plan)
		budget := 1.0
		for budget > 0.001 {
			task := pending
			pending = nil
			if task == nil {
				task = k.nextRunnable()
			}
			if task == nil {
				break
			}
			share := shareOf(task)
			if share > budget && budget < 0.999 {
				// Does not fit alongside the tasks already packed here;
				// offer it to the next core.
				pending = task
				break
			}
			k.plan = append(k.plan, placement{core: core, task: task})
			budget -= share
		}
	}
	k.coreStart[k.machine.Cores()] = len(k.plan)
	if pending != nil {
		// Return the unpacked task to the queue head. nextRunnable consumed
		// at least one slot to produce it, so the slot left of the cursor is
		// free (its task is already planned or was this very task).
		k.runqHead--
		k.runq[k.runqHead] = pending
	}
	if cap(k.deltas) < len(k.plan) {
		k.deltas = make([]uint64, len(k.plan))
	}
	k.deltas = k.deltas[:len(k.plan)]
}

// nextRunnable pops the next non-exited task from the ready queue.
//
//cryptojack:locked
func (k *Kernel) nextRunnable() *Task {
	for k.runqHead < len(k.runq) {
		t := k.runq[k.runqHead]
		k.runqHead++
		if !t.exited {
			return t
		}
	}
	return nil
}

// rebuildRunq is the scheduling half of the merge: for every slice in
// plan order it retires finished workloads and requeues the rest, so the
// next plan sees the updated queue.
//
//cryptojack:locked
func (k *Kernel) rebuildRunq() {
	// Compact the consumed prefix away first; the planned tasks re-enter
	// behind whatever the plan left queued, all within existing capacity.
	n := copy(k.runq, k.runq[k.runqHead:])
	k.runq = k.runq[:n]
	k.runqHead = 0
	for i := range k.plan {
		p := &k.plan[i]
		if p.task.workload.Done() {
			p.task.exit()
			k.traceTask(obs.EvTaskExit, p.task)
			continue
		}
		k.runq = append(k.runq, p.task)
	}
}

// accountPlan is the deterministic accounting half of the merge (the
// paper's Figure 3 step 3 housekeeping, decoupled from execution): for
// every slice in plan order it applies the sampled RSX delta to the shared
// tgid structure and performs the window check at the quantum's
// context-switch instant, now+TimeSlice. Alerts land on k.alerts; callers
// slice off their batch.
//
//cryptojack:locked
func (k *Kernel) accountPlan() {
	switchTime := k.now + k.cfg.TimeSlice
	for i := range k.plan {
		k.account(k.plan[i].task, k.deltas[i], switchTime)
	}
}

// account is the scheduler hook minus the counter read (the delta was
// sampled at execution time). The uid check comes first: "our solution
// limits its monitoring to non-root processes ... by having the scheduler
// check for a non-zero uid before performing any additional processing."
//
//cryptojack:locked
func (k *Kernel) account(task *Task, delta uint64, switchTime time.Duration) {
	if !k.tunables.Enabled {
		return
	}
	if task.UID == 0 && !k.tunables.MonitorRoot {
		return
	}
	k.samples++
	if k.om != nil {
		k.om.samples.Inc()
		k.om.rsxPerSwitch.Observe(delta)
	}

	task.rsxPtr.add(delta)
	k.checkWindow(task.rsxPtr, task, switchTime, ScopeProcess)

	if k.tunables.SessionAggregation && task.sessPtr != nil && task.sessPtr != task.rsxPtr {
		task.sessPtr.add(delta)
		k.checkWindow(task.sessPtr, task, switchTime, ScopeSession)
	}
}

// checkWindow applies the monitoring-window logic to one accounting
// structure: only a sustained stream of RSX instructions across the whole
// period can trip the threshold, never a short-lived burst.
//
//cryptojack:locked
func (k *Kernel) checkWindow(g *TgidRSX, task *Task, switchTime time.Duration, scope AlertScope) {
	// Statically-flagged thread groups (gsa prior) are checked on shortened
	// windows with a proportionally scaled threshold: the same sustained
	// RSX rate confirms in a fraction of the time.
	period := k.tunables.periodFor(g)
	if switchTime-g.windowStart < period {
		return
	}
	inWindow := g.rsxCount.Load() - g.windowBase
	over := inWindow > k.tunables.thresholdFor(period)
	if k.om != nil {
		k.om.windows.Inc()
		k.om.windowRSX.Observe(inWindow)
		if period != k.tunables.Period {
			k.om.windowsStatic.Inc()
		}
		if over && g.exempt {
			k.om.windowsExempt.Inc()
		}
	}
	if over && !g.exempt {
		a := Alert{
			Time:        switchTime,
			Pid:         task.Pid,
			Tgid:        task.Tgid,
			Name:        task.Name,
			Scope:       scope,
			RSXInWin:    inWindow,
			RatePerMin:  float64(inWindow) / period.Minutes(),
			StaticRisk:  g.staticRisk,
			StaticPrior: period != k.tunables.Period,
		}
		g.alerted = true
		k.alerts = append(k.alerts, a)
		if k.om != nil {
			k.om.windowsOver.Inc()
			if scope == ScopeSession {
				k.om.alertsSession.Inc()
			} else {
				k.om.alertsProcess.Inc()
			}
			//lint:ignore determinism host wall clock feeds the alert-latency metric only, never simulation state
			k.om.crossTimes = append(k.om.crossTimes, time.Now())
			k.om.reg.Tracer().Record(obs.Event{
				Time: switchTime, Kind: obs.EvAlert, Arg: uint64(task.Tgid), Note: task.Name,
			})
		}
	}
	g.windowStart = switchTime
	g.windowBase = g.rsxCount.Load()
}

// SampleOverheadCycles returns the modelled cycle cost of all housekeeping
// performed so far (samples x per-sample cost).
func (k *Kernel) SampleOverheadCycles() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.samples * k.cfg.SampleCost
}
