package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/gsa"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/obs"
)

// Config sizes and configures a Fleet.
type Config struct {
	// Machines is the number of simulated hosts (required, >= 1).
	Machines int
	// Shards is the number of round workers. Each worker owns a contiguous
	// home batch of machines and, when its batch is drained, steals
	// unclaimed machines from the other workers' batches through their
	// atomic claim cursors. 0 picks min(Machines, GOMAXPROCS). Worker
	// count and steal schedule affect wall-clock speed only: the alert
	// stream is bit-identical for every value.
	Shards int // cryptojack:hostonly -- worker-pool width, result-invariant
	// Round is the simulated time every machine advances between barriers
	// (default 1s). Alerts are batched per machine per round and flushed
	// into the fleet stream at the barrier, so Round bounds both alert
	// staleness and submission-placement latency.
	Round time.Duration
	// Machine is the per-host template. The fleet overrides ID per slot
	// and wires the shared decoded-block cache into CPU.SharedBlocks;
	// everything else is taken as-is. The default template turns machine-
	// local observability and intra-machine parallelism off — the fleet
	// parallelizes across machines and observes at fleet scope.
	Machine machine.Options
	// Seed namespaces the fleet's derived workload variation (see
	// fleetload); two fleets with equal Seed, Config, and submission
	// schedule produce bit-identical alert streams.
	Seed int64
	// AlertRetention caps the alert stream window kept for API readers
	// (default 65536). The stream's sequence numbers are absolute, so
	// trimmed alerts are detectable (and counted as drops).
	AlertRetention int
	// Obs is the fleet-level metrics registry (fleet_* catalog in
	// OBSERVABILITY.md); nil disables fleet instrumentation.
	Obs *obs.Registry
	// NoSharedBlocks keeps every core's decoded-block cache private
	// (the pre-fleet behaviour). The zero value shares one process-wide
	// cache across all member machines.
	NoSharedBlocks bool
	// NoFastForward forces per-quantum simulation on every machine every
	// round. The zero value lets quiescent machines (idle, or purely
	// rate-model) advance analytically via Machine.FastForward — a pure
	// performance ablation knob: the alert stream is bit-identical either
	// way (kernel differential tests hold the two paths to equality).
	NoFastForward bool // cryptojack:hostonly -- execution strategy, result-invariant
	// StaticPolicy selects what fleet admission does with the guest
	// static-analysis profile (internal/gsa) of submitted ISA programs:
	// StaticAdmit reports it, StaticFlag (the default) additionally stamps
	// the detection prior so flagged programs are confirmed on shortened
	// monitoring windows, StaticReject refuses flagged programs outright.
	StaticPolicy string
}

// Static admission policies (Config.StaticPolicy).
const (
	// StaticAdmit analyzes and reports, but changes nothing: no detection
	// prior, no rejection.
	StaticAdmit = "admit"
	// StaticFlag analyzes, reports, and stamps the thread group's static
	// prior — statically-flagged programs alert in Period/divisor windows.
	StaticFlag = "flag"
	// StaticReject refuses statically-flagged programs at submission time;
	// admitted programs carry the prior as under StaticFlag.
	StaticReject = "reject"
)

// DefaultConfig returns a fleet template: n machines, auto shards, 1s
// rounds, fleet-scope block sharing, and a machine template with the
// Table I hardware, serial in-machine scheduling, and no per-machine
// metrics registry.
func DefaultConfig(n int) Config {
	m := machine.DefaultOptions()
	m.Kernel.Parallel = false
	m.Kernel.Obs = nil
	return Config{
		Machines:     n,
		Round:        time.Second,
		Machine:      m,
		Obs:          obs.NewRegistry(),
		StaticPolicy: StaticFlag,
	}
}

// Alert is one fleet-stream entry: a kernel alert tagged with its origin
// machine, owning tenant, and absolute stream sequence number.
type Alert struct {
	Seq     uint64 `json:"seq"`
	Machine int    `json:"machine"`
	Tenant  string `json:"tenant,omitempty"`
	kernel.Alert
}

// Member is one fleet slot: a machine plus its home-batch assignment and
// streaming state.
type Member struct {
	ID int
	// Shard is the member's home batch (the worker whose claim cursor
	// covers it). Work stealing may advance the machine on any worker; the
	// assignment is a scheduling hint and API label, never a result input.
	Shard int
	M     *machine.Machine

	// pending buffers the round's alerts. It is appended to by the
	// machine's OnAlert callback (on whichever worker claimed the machine
	// this round — exactly one does) and drained by the coordinator at the
	// round barrier; the barrier's happens-before edge orders the two.
	pending []kernel.Alert
	// placed counts workloads placed on this member (the placement
	// heuristic's load signal).
	placed int
}

// tenantKey identifies a placed workload's alert ownership: alerts from
// this machine and thread group belong to the tenant.
type tenantKey struct {
	machine int
	tgid    int
}

// worker is one claimant of the work-stealing round scheduler, mirroring
// the kernel's stealWorker one level up: machines instead of cores. Each
// worker owns a contiguous home batch [lo, hi) of the member list with an
// atomic claim cursor; it drains its own batch first (cheap uncontended
// claims, warm per-batch locality), then sweeps the other workers'
// cursors stealing whatever they have not reached. Worker 0 is the
// coordinator goroutine itself, so a one-worker fleet runs without any
// goroutine round-trips.
//
// Pure host-side execution machinery (pool shape, claim cursors, and
// wall-clock accounting): which worker advances a machine affects
// scheduling only, never results — machines are mutually independent and
// each is claimed exactly once per round.
//
//cryptojack:hostonly
type worker struct {
	f      *Fleet
	id     int
	lo, hi int          // home batch [lo, hi) of f.members
	next   atomic.Int64 // claim cursor into the home batch; all workers share it
	start  chan time.Duration

	// Per-round scratch, reset by the coordinator before the start signal
	// and folded into the registry at the barrier (both edges ordered by
	// the channel send and the WaitGroup).
	busy     time.Duration // wall time advancing machines, last round
	claimed  uint64        // machines advanced, last round
	steals   uint64        // claims taken from other workers' batches
	ffRounds uint64        // machine-rounds advanced analytically
}

// Fleet runs thousands of Machines in one process: work-stealing workers
// claim machines off per-batch atomic cursors, advance them in lock-step
// rounds of simulated time (quiescent machines analytically, via
// Machine.FastForward), and flush per-machine alert batches into one
// canonically ordered fleet stream at every round barrier.
//
// Determinism: machines are mutually independent (the only shared
// structure, the decoded-block cache, is content-deterministic and
// read-mostly), every machine is claimed by exactly one worker per round,
// and the barrier drains batches in machine-ID order — so the alert
// stream is bit-identical across worker counts, steal schedules, and
// fast-forward on/off. Submissions placed while the fleet is quiescent
// (before Run, or between Run calls) are part of that guarantee;
// submissions during a running round land immediately and are placed
// best-effort relative to it.
//
// Run must be driven from one goroutine at a time. Submit, AlertsSince,
// Members, and the API handlers are safe to call concurrently with Run.
type Fleet struct {
	cfg     Config
	members []*Member
	workers []*worker // cryptojack:hostonly -- worker pool, result-invariant
	shared  *cpu.SharedBlocks
	om      *fmetrics // cryptojack:hostonly

	// Scheduler test hooks (sched_test.go): hookRoundStart delays chosen
	// workers to force steal-heavy schedules; noSteal confines every worker
	// to its home batch. Both set before Run, read-only during it.
	hookRoundStart func(workerID int) // cryptojack:hostonly -- test-only schedule shaping
	noSteal        bool               // cryptojack:hostonly -- test-only schedule shaping

	// mu guards the alert stream, tenancy tables, and placement state
	// against concurrent API readers/writers.
	mu         sync.Mutex
	stream     []Alert              // guarded by mu
	baseSeq    uint64               // guarded by mu
	nextSeq    uint64               // guarded by mu
	owners     map[tenantKey]string // guarded by mu
	tenants    map[string]int       // guarded by mu
	placeID    int                  // guarded by mu
	pendingSub []boundSpec          // guarded by mu
	running    bool                 // guarded by mu

	catalogOnce sync.Once
	catalog     map[string]*isa.Program // immutable after catalogOnce
	// catProfiles holds each catalog program's static-analysis profile.
	// Immutable after catalogOnce.
	catProfiles map[string]gsa.StaticProfile

	workerWG sync.WaitGroup
	simTime  time.Duration
	rounds   uint64
}

// New builds the fleet: machines, shard partition, shared block cache.
func New(cfg Config) (*Fleet, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("fleet: machines = %d", cfg.Machines)
	}
	if cfg.Round <= 0 {
		cfg.Round = time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > cfg.Machines {
		cfg.Shards = cfg.Machines
	}
	if cfg.AlertRetention <= 0 {
		cfg.AlertRetention = 65536
	}
	switch cfg.StaticPolicy {
	case "":
		cfg.StaticPolicy = StaticFlag
	case StaticAdmit, StaticFlag, StaticReject:
	default:
		return nil, fmt.Errorf("fleet: unknown static policy %q", cfg.StaticPolicy)
	}
	f := &Fleet{
		cfg:     cfg,
		owners:  map[tenantKey]string{},
		tenants: map[string]int{},
	}
	if !cfg.NoSharedBlocks {
		f.shared = cpu.NewSharedBlocks()
	}
	// One decoder tag table for the whole fleet: block-cache keys include
	// the table's unique generation, so per-machine tables would make
	// cross-machine sharing structurally impossible (every machine a
	// different generation). The table is immutable, so sharing one
	// instance adds no cross-machine ordering.
	if cfg.Machine.TagTable == nil {
		table, err := machine.TagTableByName(cfg.Machine.TagSet)
		if err != nil {
			return nil, err
		}
		cfg.Machine.TagTable = table
	}
	if cfg.Obs != nil {
		f.om = newFMetrics(cfg.Obs, cfg.Shards)
		f.om.workers.Set(int64(cfg.Shards))
	}
	for i := 0; i < cfg.Machines; i++ {
		opts := cfg.Machine
		opts.ID = i
		opts.CPU.SharedBlocks = f.shared
		m, err := machine.New(opts)
		if err != nil {
			return nil, fmt.Errorf("fleet machine %d: %w", i, err)
		}
		mem := &Member{ID: i, M: m}
		m.OnAlert(func(a kernel.Alert) { mem.pending = append(mem.pending, a) })
		f.members = append(f.members, mem)
	}
	// Contiguous balanced home batches: worker s starts from members
	// [lo, hi). The partition seeds claim locality only, never results —
	// stealing moves unclaimed machines to whichever worker gets there
	// first.
	per := cfg.Machines / cfg.Shards
	extra := cfg.Machines % cfg.Shards
	lo := 0
	for s := 0; s < cfg.Shards; s++ {
		n := per
		if s < extra {
			n++
		}
		w := &worker{f: f, id: s, lo: lo, hi: lo + n, start: make(chan time.Duration, 1)}
		for _, mem := range f.members[lo : lo+n] {
			mem.Shard = s
		}
		f.workers = append(f.workers, w)
		lo += n
		if f.om != nil {
			f.om.machines[s].Set(int64(n))
		}
	}
	return f, nil
}

// Config returns the fleet's effective (defaulted) configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Members returns the fleet's member slots (fixed after New; the slice is
// shared, do not mutate).
func (f *Fleet) Members() []*Member { return f.members }

// SharedBlocks returns the fleet-scope decoded-block cache (nil when
// sharing is disabled).
func (f *Fleet) SharedBlocks() *cpu.SharedBlocks { return f.shared }

// Obs returns the fleet-level metrics registry (nil when disabled).
func (f *Fleet) Obs() *obs.Registry { return f.cfg.Obs }

// Now returns the fleet's simulated time (all machines agree at barriers).
func (f *Fleet) Now() time.Duration { return f.simTime }

// Rounds returns the number of completed fleet rounds.
func (f *Fleet) Rounds() uint64 { return f.rounds }

// loop drives one thief worker: one round of simulated time per start
// signal. Worker 0 never runs loop — the coordinator calls work inline.
func (w *worker) loop() {
	for d := range w.start {
		w.work(d)
		w.f.workerWG.Done()
	}
}

// work is one worker's share of a round: drain the home batch, then steal
// from every other worker's batch until all cursors are exhausted.
func (w *worker) work(step time.Duration) {
	if h := w.f.hookRoundStart; h != nil {
		h(w.id)
	}
	var t0 time.Time
	if w.f.om != nil {
		//lint:ignore determinism host wall clock feeds the worker busy-time metric only, never simulation state
		t0 = time.Now()
	}
	w.drain(w, step, false)
	if !w.f.noSteal {
		n := len(w.f.workers)
		for off := 1; off < n; off++ {
			w.drain(w.f.workers[(w.id+off)%n], step, true)
		}
	}
	if w.f.om != nil {
		w.busy = time.Since(t0)
	}
}

// drain claims machines off v's cursor until v's batch is exhausted. The
// cursor is atomic and monotonic, so across all claimants every index in
// [v.lo, v.hi) is handed out exactly once per round.
func (w *worker) drain(v *worker, step time.Duration, steal bool) {
	for {
		i := int(v.next.Add(1)) - 1
		if i >= v.hi {
			return
		}
		w.advance(w.f.members[i], step)
		w.claimed++
		if steal {
			w.steals++
		}
	}
}

// advance moves one machine through the round: analytically when the
// machine is quiescent (and the ablation knob allows), per-quantum
// simulation otherwise. The two paths are bit-identical by the kernel's
// differential guarantee.
func (w *worker) advance(mem *Member, step time.Duration) {
	if !w.f.cfg.NoFastForward && mem.M.FastForward(step) {
		w.ffRounds++
		return
	}
	mem.M.Run(step)
}

// Run advances every machine by d of simulated time in Round-sized
// lock-step rounds (the tail round is shortened so all machines land
// exactly d later). It must not be called concurrently with itself.
func (f *Fleet) Run(d time.Duration) {
	for _, w := range f.workers[1:] {
		go w.loop()
	}
	defer func() {
		for _, w := range f.workers[1:] {
			close(w.start)
			w.start = make(chan time.Duration, 1)
		}
	}()
	f.setRunning(true)
	defer f.setRunning(false)
	for done := time.Duration(0); done < d; {
		step := f.cfg.Round
		if remain := d - done; remain < step {
			step = remain
		}
		f.round(step)
		done += step
	}
}

// round runs one barrier-to-barrier step: the coordinator resets every
// claim cursor, signals the thief workers, participates as worker 0, and
// after the barrier drains per-machine alert batches in machine-ID order
// — the canonical stream order that makes the result independent of which
// worker advanced which machine. All per-worker observability deltas fold
// into the registry here, once per round, never per machine.
func (f *Fleet) round(step time.Duration) {
	var t0 time.Time
	if f.om != nil {
		//lint:ignore determinism host wall clock feeds the round-timing metric only, never simulation state
		t0 = time.Now()
	}
	for _, w := range f.workers {
		w.next.Store(int64(w.lo))
		w.claimed, w.steals, w.ffRounds, w.busy = 0, 0, 0, 0
	}
	f.workerWG.Add(len(f.workers) - 1)
	for _, w := range f.workers[1:] {
		w.start <- step
	}
	f.workers[0].work(step)
	f.workerWG.Wait()
	f.collect(step)
	f.simTime += step
	f.rounds++
	if f.om != nil {
		wall := time.Since(t0)
		f.om.rounds.Inc()
		f.om.roundNs.Observe(uint64(wall))
		f.om.machineMs.Add(uint64(len(f.members)) * uint64(step.Milliseconds()))
		var steals, ffRounds uint64
		for _, w := range f.workers {
			f.om.workerBusy[w.id].Add(uint64(w.busy))
			if idle := wall - w.busy; idle > 0 {
				f.om.workerIdle[w.id].Add(uint64(idle))
			}
			steals += w.steals
			ffRounds += w.ffRounds
		}
		f.om.steals.Add(steals)
		f.om.ffRounds.Add(ffRounds)
		f.om.observeShared(f.shared.Stats())
	}
}

func (f *Fleet) setRunning(v bool) {
	f.mu.Lock()
	f.running = v
	f.mu.Unlock()
}

// collect flushes every member's pending alert batch into the stream, in
// member-ID order, trimming the retention window, then applies deferred
// submissions while every machine is quiescent at the barrier. step is the
// round just executed (machines sit at f.simTime+step).
//
// The merge is pre-sized: one pass counts the round's alerts, the stream
// grows (at most once) to fit them all, and the appends that follow never
// reallocate. The retention trim slides survivors down in place instead
// of copying into a fresh slice, so at steady state collect allocates
// nothing; per-member pending batches keep their capacity round to round.
func (f *Fleet) collect(step time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total, batches int
	for _, mem := range f.members {
		if n := len(mem.pending); n > 0 {
			total += n
			batches++
		}
	}
	if total > 0 {
		if need := len(f.stream) + total; need > cap(f.stream) {
			if grown := 2 * cap(f.stream); need < grown {
				need = grown
			}
			ns := make([]Alert, len(f.stream), need)
			copy(ns, f.stream)
			f.stream = ns
		}
		for _, mem := range f.members {
			for _, a := range mem.pending {
				f.stream = append(f.stream, Alert{
					Seq:     f.nextSeq,
					Machine: mem.ID,
					Tenant:  f.owners[tenantKey{machine: mem.ID, tgid: a.Tgid}],
					Alert:   a,
				})
				f.nextSeq++
				if f.om != nil {
					f.om.alertLagMs.Observe(uint64((f.simTime + step - a.Time).Milliseconds()))
				}
			}
			mem.pending = mem.pending[:0]
		}
	}
	if over := len(f.stream) - f.cfg.AlertRetention; over > 0 {
		// Slide survivors down in place; the vacated tail is overwritten by
		// future rounds, so the backing array is reused instead of replaced.
		n := copy(f.stream, f.stream[over:])
		f.stream = f.stream[:n]
		f.baseSeq += uint64(over)
		if f.om != nil {
			f.om.alertsDrop.Add(uint64(over))
		}
	}
	if f.om != nil {
		f.om.alerts.Add(uint64(total))
		f.om.alertBatches.Add(uint64(batches))
	}
	f.applyPendingLocked()
}

// AlertsSince returns up to limit alerts with sequence >= since, optionally
// filtered to one tenant (empty tenant = all), plus the cursor to pass as
// the next since and the number of matching alerts that were already
// trimmed from the retention window (0 means the read was lossless).
func (f *Fleet) AlertsSince(since uint64, tenant string, limit int) (alerts []Alert, next uint64, trimmed uint64) {
	if limit <= 0 {
		limit = 1000
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if since < f.baseSeq {
		trimmed = f.baseSeq - since
		since = f.baseSeq
	}
	next = since
	// Clamp in uint64: a cursor 2^63 or more past the base would wrap
	// negative as an int.
	for _, a := range f.stream[min(since-f.baseSeq, uint64(len(f.stream))):] {
		next = a.Seq + 1
		if tenant != "" && a.Tenant != tenant {
			continue
		}
		alerts = append(alerts, a)
		if len(alerts) >= limit {
			break
		}
	}
	return alerts, next, trimmed
}

// AlertStream returns the entire retained alert stream (testing and small
// fleets; API readers should page with AlertsSince).
func (f *Fleet) AlertStream() []Alert {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Alert(nil), f.stream...)
}
