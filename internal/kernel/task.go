package kernel

import (
	"sync/atomic"
	"time"

	"darkarts/internal/cpu"
)

// TgidRSX is the paper's tgid_rsx_t (Listing 1): one instance is shared by
// every thread in a thread group so that mining work split across threads
// still aggregates into a single count. The counters are atomic, mirroring
// the kernel's refcount_t semantics.
type TgidRSX struct {
	rsxCount atomic.Uint64 // cumulative RSX instructions across the group
	tcount   atomic.Int64  // live threads referencing this structure

	// Monitoring-window state, owned by the scheduler.
	windowStart time.Duration
	windowBase  uint64
	alerted     bool
	// exempt excludes the whole thread group from threshold checks
	// (administrative allow-listing for legitimate sustained crypto use;
	// accounting continues so the exemption is auditable).
	exempt bool

	// Static-analysis prior (internal/gsa), stamped before the thread group
	// first runs. staticFlagged groups are checked on shortened monitoring
	// windows (Tunables.StaticPriorDivisor) with a proportionally scaled
	// threshold: the same sustained-rate criterion, reached sooner. The
	// risk score itself is carried for alert/procfs reporting only.
	staticRisk    float64
	staticFlagged bool
}

// SetStaticPrior stamps the group's static-analysis prior: the gsa risk
// score and whether it crossed the flagging threshold. Call before the
// thread group first runs (spawn time); the scheduler reads the fields on
// every window check without synchronization.
func (g *TgidRSX) SetStaticPrior(risk float64, flagged bool) {
	g.staticRisk = risk
	g.staticFlagged = flagged
}

// StaticPrior returns the stamped static risk score and flag.
func (g *TgidRSX) StaticPrior() (float64, bool) { return g.staticRisk, g.staticFlagged }

// RSXCount returns the group's cumulative RSX instruction count.
func (g *TgidRSX) RSXCount() uint64 { return g.rsxCount.Load() }

// ThreadCount returns the number of live threads referencing the structure.
func (g *TgidRSX) ThreadCount() int64 { return g.tcount.Load() }

// add accumulates sampled RSX instructions.
//
//cryptojack:hotpath
func (g *TgidRSX) add(n uint64) { g.rsxCount.Add(n) }

// Workload is what a task executes when scheduled. Implementations must
// charge everything they "execute" to the core's counter bank — that is the
// hardware counter the scheduler samples. ISA-backed workloads do this by
// construction; rate-model workloads (internal/workload) inject calibrated
// counts.
type Workload interface {
	// RunSlice runs the workload on core for the slice duration d of
	// simulated time.
	RunSlice(core *cpu.Core, d time.Duration)
	// Done reports whether the workload has finished (the task will exit).
	Done() bool
}

// SliceSharer is an optional Workload refinement: SliceShare reports the
// fraction of a scheduler quantum the task actually computes for (1.0 for
// CPU-bound work). Interactive applications block on I/O most of the time,
// so several of them share one core; a throttled miner likewise frees the
// CPU during its idle duty cycle. Workloads without this method are
// treated as fully CPU-bound.
type SliceSharer interface {
	SliceShare() float64
}

// shareOf returns the task's slice share, clamped to (0, 1].
func shareOf(t *Task) float64 {
	s, ok := t.workload.(SliceSharer)
	if !ok {
		return 1
	}
	v := s.SliceShare()
	if v <= 0.01 {
		return 0.01
	}
	if v > 1 {
		return 1
	}
	return v
}

// Task is the simulated task_struct. Threads created with CloneThread share
// the parent's Tgid and RSX pointer (Listing 2); new processes get a fresh
// thread group.
type Task struct {
	Pid  int
	Tgid int
	UID  int
	Name string

	// rsxPtr is the task_struct's rsx_ptr field: the shared TgidRSX.
	rsxPtr *TgidRSX
	// sessPtr aggregates across the whole process tree (session). The
	// paper aggregates per thread group, which a miner can evade by
	// fork()ing workers instead of spawning threads; session aggregation
	// (enabled via the session_aggregation tunable) closes that hole.
	sessPtr *TgidRSX

	workload Workload
	exited   bool
}

// Session returns the task's process-tree accounting structure.
func (t *Task) Session() *TgidRSX { return t.sessPtr }

// RSX returns the task's thread-group RSX structure.
func (t *Task) RSX() *TgidRSX { return t.rsxPtr }

// Exited reports whether the task has terminated.
func (t *Task) Exited() bool { return t.exited }

// cloneArgs mirrors the relevant part of kernel_clone_args.
type cloneArgs struct {
	parent   *Task
	sameTgid bool
	name     string
	uid      int
	workload Workload
}

// doFork is the paper's _do_fork modification (Listing 2): if the new task
// shares the parent's tgid, point rsx_ptr at the parent's structure;
// otherwise allocate a fresh one. The session pointer is inherited from
// the parent whenever one exists (fork and clone both stay in the
// session); only session-less spawns allocate a new session.
func doFork(pid int, args cloneArgs) *Task {
	t := &Task{Pid: pid, Name: args.name, UID: args.uid, workload: args.workload}
	if args.parent != nil && args.sameTgid {
		t.Tgid = args.parent.Tgid
		t.rsxPtr = args.parent.rsxPtr
	} else {
		t.Tgid = pid
		t.rsxPtr = &TgidRSX{}
	}
	if args.parent != nil {
		t.sessPtr = args.parent.sessPtr
	} else {
		t.sessPtr = &TgidRSX{}
	}
	t.rsxPtr.tcount.Add(1)
	t.sessPtr.tcount.Add(1)
	return t
}

// exit terminates the task and drops its reference on the shared structure.
// The structure is conceptually freed when tcount reaches zero; in Go the
// garbage collector does the freeing, so we only maintain the count.
func (t *Task) exit() {
	if t.exited {
		return
	}
	t.exited = true
	t.rsxPtr.tcount.Add(-1)
	t.sessPtr.tcount.Add(-1)
}
