package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/obs"
	"darkarts/internal/pool"
)

// Config sizes and configures a Fleet.
type Config struct {
	// Machines is the number of simulated hosts (required, >= 1).
	Machines int
	// Shards is the number of round workers. Each round the workers claim
	// the due machines one at a time off a shared cursor (internal/pool).
	// 0 picks min(Machines, GOMAXPROCS). Worker count and claim order
	// affect wall-clock speed only: the alert stream is bit-identical for
	// every value.
	Shards int // worker-pool width, result-invariant
	// Round is the simulated time between barriers (default 1s); a
	// machine with no event before a barrier may sit the round out and
	// catch up later. Alerts are batched per machine per round and flushed
	// into the fleet stream at the barrier, so Round bounds both alert
	// staleness and submission-placement latency.
	Round time.Duration
	// Machine is the per-host template. The fleet overrides ID per slot
	// and wires the fleet's decoded-block store into CPU.SharedBlocks;
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
	// StaticPolicy selects what fleet admission does with the guest
	// static-analysis profile (internal/gsa) of submitted ISA programs:
	// StaticAdmit reports it, StaticFlag (the default) additionally stamps
	// the detection prior so flagged programs are confirmed on shortened
	// monitoring windows, StaticReject refuses flagged programs outright.
	StaticPolicy string

	// Result-invariant ablations, set only by this package's tests and
	// benchmarks. noSharedBlocks gives every machine a block store of its
	// own instead of sharing one per fleet (the store's payoff is memory).
	// noFastForward simulates every machine every round instead of
	// advancing quiescent ones analytically (Machine.FastForwardTo) and
	// skipping their event-free rounds (see Member).
	noSharedBlocks bool
	noFastForward  bool // execution strategy, result-invariant
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

// Member is one fleet slot: a machine plus its streaming state.
type Member struct {
	ID int
	M  *machine.Machine

	// pending buffers the round's alerts. It is appended to by the
	// machine's OnAlert callback (on whichever worker claimed the machine
	// this round — exactly one does) and drained by the coordinator at the
	// round barrier; the barrier's happens-before edge orders the two.
	pending []kernel.Alert
	// placed counts workloads placed on this member (the placement
	// heuristic's load signal).
	placed int
	// horizon is the start of the machine's next quantum that does more
	// than commutative accounting (kernel.FastForwardTo): a round whose
	// barrier is at or before it leaves the machine parked, and a later
	// advance covers the skipped span in one call. Written by the worker
	// that advanced the member, read by the coordinator after the barrier;
	// valid only within one Run call.
	horizon time.Duration
}

// tenantKey identifies a placed workload's alert ownership: alerts from
// this machine and thread group belong to the tenant.
type tenantKey struct {
	machine int
	tgid    int
}

// workerStats is one round worker's scratch for the current round, reset
// by the coordinator before the round and folded into the registry after
// its barrier (the pool's start and barrier order both edges). Each worker
// writes only its own entry, once per machine, so entries are padded to a
// 64-byte cache line: workers side by side never write the same line.
type workerStats struct {
	first    time.Time     // wall clock at the worker's first claim
	busy     time.Duration // wall time from first claim to last machine done
	claimed  uint64        // machines advanced (advance calls)
	ffRounds uint64        // machine-rounds advanced analytically
	_        [16]byte
}

// Fleet runs thousands of Machines in one process: a worker pool claims
// machines off one atomic cursor and advances them in lock-step rounds of
// simulated time (quiescent machines analytically, via
// Machine.FastForwardTo, and only in rounds where they have an event),
// and the coordinator flushes per-machine alert batches into one
// canonically ordered fleet stream at every round barrier.
//
// Determinism: machines are mutually independent (the only shared
// structure, the decoded-block store, is content-deterministic: a block
// is the same whichever core decodes it), every due machine is claimed by
// exactly one worker per round, a skipped machine has no event before the
// barrier, and the barrier drains batches in machine-ID order — so the
// alert stream is bit-identical across worker counts, claim orders,
// fast-forward on/off, and how a span is split into Run calls. Submissions placed
// while the fleet is quiescent (before Run, or between Run calls) are
// part of that guarantee; submissions during a running round land at the
// next barrier and are placed best-effort relative to it.
//
// Run must be driven from one goroutine at a time. Submit, AlertsSince,
// Members, and the API handlers are safe to call concurrently with Run.
type Fleet struct {
	cfg     Config
	members []*Member
	// due lists, in ID order, the members advanced this round: those whose
	// horizon is before the barrier, or every member in the first and last
	// round of a Run call. Rebuilt by the coordinator before each round.
	due []*Member
	// end is the running round's barrier, set by the coordinator before
	// the pool runs the due list.
	end time.Duration
	// stats holds each round worker's scratch (indexed by worker id).
	stats  []workerStats
	shared *cpu.SharedBlocks
	om     *fmetrics // host-side telemetry

	// hookRoundStart is a scheduler test hook (sched_test.go,
	// horizon_test.go, api_test.go): it runs on each worker before the
	// worker's first machine of a round (delaying chosen workers skews the
	// claim order). Set before Run, read-only during it.
	hookRoundStart func(workerID int) // test-only schedule shaping

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

	simTime time.Duration
	rounds  uint64
}

// New builds the fleet: machines, worker scratch, decoded-block store.
func New(cfg Config) (*Fleet, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("fleet: machines = %d", cfg.Machines)
	}
	if cfg.Round <= 0 {
		cfg.Round = time.Second
	}
	if cfg.Shards <= 0 {
		//lint:ignore determinism sizes the worker pool only; TestFleetDeterminismAcrossShards pins results equal at every width
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
		due:     make([]*Member, 0, cfg.Machines),
		stats:   make([]workerStats, cfg.Shards),
		owners:  map[tenantKey]string{},
		tenants: map[string]int{},
	}
	if !cfg.noSharedBlocks {
		f.shared = cpu.NewSharedBlocks()
	}
	// One decoder tag table for the whole fleet: block-store keys include
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
	return f, nil
}

// Config returns the fleet's effective (defaulted) configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Members returns the fleet's member slots (fixed after New; the slice is
// shared, do not mutate).
func (f *Fleet) Members() []*Member { return f.members }

// SharedBlocks returns the fleet's decoded-block store (nil when each
// machine keeps its own).
func (f *Fleet) SharedBlocks() *cpu.SharedBlocks { return f.shared }

// Obs returns the fleet-level metrics registry (nil when disabled).
func (f *Fleet) Obs() *obs.Registry { return f.cfg.Obs }

// Now returns the fleet's simulated time (all machines agree at barriers).
func (f *Fleet) Now() time.Duration { return f.simTime }

// Rounds returns the number of completed fleet rounds.
func (f *Fleet) Rounds() uint64 { return f.rounds }

// advanceDue is the round pool's per-item func: worker w advances the
// due list's member i to the round's barrier.
func (f *Fleet) advanceDue(w, i int) {
	st := &f.stats[w]
	if st.claimed == 0 {
		if h := f.hookRoundStart; h != nil {
			h(w)
		}
		if f.om != nil {
			//lint:ignore determinism host wall clock feeds the worker busy-time metric only, never simulation state
			st.first = time.Now()
		}
	}
	if f.advance(f.due[i], f.end) {
		st.ffRounds++
	}
	st.claimed++
	// A round in which parked machines catch up on many skipped rounds can
	// run for tens of milliseconds without blocking, and until a worker
	// enters the Go scheduler the timers on its processor wait: an API
	// client sleeping between requests would wake on the runtime's 10ms
	// preemption instead of its own deadline.
	runtime.Gosched()
	if f.om != nil {
		st.busy = time.Since(st.first)
	}
}

// advance moves one machine to the first quantum boundary at or past the
// absolute time end — analytically when the machine is quiescent (and the
// ablation knob allows), per-quantum simulation otherwise; the two paths
// are bit-identical by the kernel's differential guarantee — and records
// its new horizon. A machine that had to simulate gets its own clock as
// horizon, so it is due every round. It reports whether the span was
// fast-forwarded.
func (f *Fleet) advance(mem *Member, end time.Duration) bool {
	if !f.cfg.noFastForward {
		if h, ok := mem.M.FastForwardTo(end); ok {
			mem.horizon = h
			return true
		}
	}
	mem.M.RunTo(end)
	mem.horizon = mem.M.Now()
	return false
}

// Run advances every machine by d of simulated time in Round-sized
// lock-step rounds (the tail round is shortened so the fleet clock lands
// exactly d later, and every machine on the first quantum boundary at or
// past it). Inside the call a machine may trail the fleet clock while it
// has no event before the barrier; the first and last round advance every
// machine, so horizons never outlive the call. It must not be called
// concurrently with itself.
func (f *Fleet) Run(d time.Duration) {
	p := pool.New(f.cfg.Shards, f.advanceDue)
	defer p.Close()
	f.setRunning(true)
	defer f.setRunning(false)
	for done := time.Duration(0); done < d; {
		step := f.cfg.Round
		if remain := d - done; remain < step {
			step = remain
		}
		f.round(p, step, done == 0 || done+step == d)
		done += step
	}
}

// round runs one barrier-to-barrier step: the coordinator builds the due
// list in ID order (every member when all is set or fast-forward is
// ablated), runs it through the pool as worker 0, and after the barrier
// drains per-machine alert batches in machine-ID order — the canonical
// stream order that makes the result independent of which worker advanced
// which machine. A round with nothing due wakes no worker. All per-worker
// observability deltas fold into the registry here, once per round, never
// per machine.
func (f *Fleet) round(p *pool.Pool, step time.Duration, all bool) {
	var t0 time.Time
	if f.om != nil {
		//lint:ignore determinism host wall clock feeds the round-timing metric only, never simulation state
		t0 = time.Now()
	}
	f.end = f.simTime + step
	all = all || f.cfg.noFastForward
	f.due = f.due[:0]
	for _, mem := range f.members {
		if all || mem.horizon < f.end {
			f.due = append(f.due, mem)
		}
	}
	clear(f.stats)
	p.Run(len(f.due))
	caughtUp := f.collect(f.end)
	if f.om != nil {
		wall := time.Since(t0)
		f.om.rounds.Inc()
		f.om.roundNs.Observe(uint64(wall))
		f.om.machineMs.Add(uint64(len(f.members)) * uint64(step.Milliseconds()))
		ffRounds, advances := uint64(len(f.members)-len(f.due)), uint64(caughtUp)
		for w, st := range f.stats {
			f.om.workerBusy[w].Add(uint64(st.busy))
			if idle := wall - st.busy; idle > 0 {
				f.om.workerIdle[w].Add(uint64(idle))
			}
			ffRounds += st.ffRounds
			advances += st.claimed
		}
		f.om.ffRounds.Add(ffRounds)
		f.om.advances.Add(advances)
		f.om.observeShared(f.shared.Stats())
	}
}

func (f *Fleet) setRunning(v bool) {
	f.mu.Lock()
	f.running = v
	f.mu.Unlock()
}

// collect flushes the due members' pending alert batches into the stream,
// in member-ID order, trimming the retention window, then applies
// deferred submissions while every machine is parked at or before the
// barrier end. Only a member advanced this round can hold alerts, so collect
// scans the due list, not the fleet. A member that receives a deferred
// submission and was left parked this round is first advanced to the
// barrier, so the spawn lands at the same simulated time as without
// skipping; collect returns how many such catch-up advances it made.
// Last, it moves the fleet clock to end.
//
// The merge is pre-sized: one pass counts the round's alerts, the stream
// grows (at most once) to fit them all, and the appends that follow never
// reallocate. The retention trim slides survivors down in place instead
// of copying into a fresh slice, so at steady state collect allocates
// nothing; per-member pending batches keep their capacity round to round.
func (f *Fleet) collect(end time.Duration) (caughtUp int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// A parked member's horizon is at or past the barrier, so no quantum
	// of its catch-up crosses a window and it raises no alert.
	for _, b := range f.pendingSub {
		if b.member.M.Now() < end {
			f.advance(b.member, end)
			caughtUp++
		}
	}
	var total, batches int
	for _, mem := range f.due {
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
		for _, mem := range f.due {
			for _, a := range mem.pending {
				f.stream = append(f.stream, Alert{
					Seq:     f.nextSeq,
					Machine: mem.ID,
					Tenant:  f.owners[tenantKey{machine: mem.ID, tgid: a.Tgid}],
					Alert:   a,
				})
				f.nextSeq++
				if f.om != nil {
					f.om.alertLagMs.Observe(uint64(max(end-a.Time, 0).Milliseconds()))
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
	// The clock moves under mu: API handlers read it concurrently.
	f.simTime = end
	f.rounds++
	return caughtUp
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
