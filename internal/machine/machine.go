package machine

import (
	"fmt"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/gsa"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/microcode"
	"darkarts/internal/obs"
	"darkarts/internal/workload"
)

// Options configures one Machine. The zero value is not runnable; start
// from DefaultOptions.
type Options struct {
	// CPU is the hardware model (cores, frequency, engine mode, caches).
	CPU cpu.Config
	// Kernel is the OS model (quantum, tunables, parallelism, obs scope).
	// Kernel.Obs is the machine's private metrics registry; fleets set it
	// nil so thousands of machines stay allocation-lean and observe the
	// fleet through fleet-level metrics instead.
	Kernel kernel.Config
	// TagSet selects the decoder tag table: "rsx" (default), "rsxo", or
	// "rotate-only" (ablation).
	TagSet string
	// TagTable, when non-nil, is installed instead of a table freshly
	// built from TagSet. Decoded-block store keys include the table's
	// unique generation number, so a fleet passes one shared (immutable)
	// table to every member — otherwise each machine's generation differs
	// and the fleet's block store can never share a table across machines.
	TagTable *microcode.TagTable
	// ID is an owner-assigned machine identity (fleet slot). It has no
	// simulation effect; it only labels the machine in summaries.
	ID int
}

// DefaultOptions returns the paper's deployment: the Table I machine in
// fast mode with RSX tags, 2.5B/min threshold over one-minute windows,
// parallel quantum execution, and a private metrics registry.
func DefaultOptions() Options {
	return Options{
		CPU:    cpu.DefaultConfig(),
		Kernel: kernel.DefaultConfig(),
		TagSet: "rsx",
	}
}

// Machine is one self-contained simulated host: its own CPU (cores, memory,
// tag table), its own kernel (tasks, scheduler, detection state, procfs),
// and its own observability scope. Machines share no state that affects
// results — the only cross-machine structure is the decoded-block store a
// fleet may wire in through CPU.SharedBlocks, whose slots are filled once,
// by compare-and-swap, with immutable blocks — so any number of Machines
// advance concurrently from different goroutines without further
// synchronization.
//
// A Machine must be driven (Run/RunUntilAlert) from one goroutine at a
// time; the kernel's copy-on-read accessors (Alerts, Tasks, Now, procfs
// reads) stay safe to call concurrently with a running simulation.
type Machine struct {
	id   int
	cpu  *cpu.CPU
	kern *kernel.Kernel
	// nextBase allocates disjoint memory regions for ISA workloads.
	nextBase uint64
}

// New builds and wires one machine: hardware, firmware tag table, kernel.
// It refuses tunables that fail kernel.Tunables.Validate for the
// kernel's time slice.
func New(opts Options) (*Machine, error) {
	c, err := cpu.New(opts.CPU)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	table := opts.TagTable
	if table == nil {
		table, err = TagTableByName(opts.TagSet)
		if err != nil {
			return nil, err
		}
	}
	update := microcode.FirmwareUpdate{Version: 1, Table: table}
	if err := update.Apply(c); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	k := kernel.New(c, opts.Kernel)
	if err := k.Tunables().Validate(k.TimeSlice()); err != nil {
		return nil, fmt.Errorf("machine: tunables: %w", err)
	}
	return &Machine{id: opts.ID, cpu: c, kern: k, nextBase: 0x1000_0000}, nil
}

// TagTableByName builds the named decoder tag table. Each call returns a
// fresh table with its own generation; callers that want cross-machine
// block sharing must build once and pass the same table to every machine.
func TagTableByName(name string) (*microcode.TagTable, error) {
	switch name {
	case "", "rsx":
		return microcode.RSX(), nil
	case "rsxo":
		return microcode.RSXO(), nil
	case "rotate-only":
		return microcode.RotateOnly(), nil
	default:
		return nil, fmt.Errorf("machine: unknown tag set %q", name)
	}
}

// ID returns the owner-assigned machine identity.
func (m *Machine) ID() int { return m.id }

// CPU returns the simulated processor.
func (m *Machine) CPU() *cpu.CPU { return m.cpu }

// Kernel returns the simulated OS.
func (m *Machine) Kernel() *kernel.Kernel { return m.kern }

// ProcFS returns the runtime tunables filesystem.
func (m *Machine) ProcFS() *kernel.ProcFS { return m.kern.ProcFS() }

// Obs returns the machine's metrics registry (nil when Options.Kernel.Obs
// was nil, the fleet configuration).
func (m *Machine) Obs() *obs.Registry { return m.kern.Obs() }

// UpdateMicrocode installs a new decoder tag table through the firmware
// update path (e.g. switching RSX -> RSXO in the field).
func (m *Machine) UpdateMicrocode(version uint32, tagSet string) error {
	table, err := TagTableByName(tagSet)
	if err != nil {
		return err
	}
	return microcode.FirmwareUpdate{Version: version, Table: table}.Apply(m.cpu)
}

// SpawnApp schedules an application rate-model as a non-root process.
func (m *Machine) SpawnApp(p workload.AppProfile) *kernel.Task {
	return m.kern.Spawn(p.Name, 1000, workload.NewAppWorkload(p))
}

// SpawnProgram loads an ISA program as a non-root process running at the
// given effective instruction rate, restarting it on every halt. Program
// code is never copied — many machines may load the same *Program image,
// which is what lets a fleet's decoded-block store pay off in memory: one
// decoded copy of each block per fleet and tag table, not one per machine.
func (m *Machine) SpawnProgram(name string, prog *isa.Program, ips uint64) (*kernel.Task, error) {
	base := m.nextBase
	m.nextBase += cpu.RegionSize(prog) + 1<<20
	w, err := kernel.NewISAWorkload(prog, m.cpu.Memory(), base, ips)
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	w.Loop = true
	return m.kern.Spawn(name, 1000, w), nil
}

// SpawnAnalyzedProgram runs guest static analysis (internal/gsa) over the
// program before spawning it, and stamps the new task's thread group with
// the static risk prior: statically-flagged programs (PoW loop structure)
// are then confirmed by the kernel on shortened monitoring windows
// (Tunables.StaticPriorDivisor).
func (m *Machine) SpawnAnalyzedProgram(name string, prog *isa.Program, ips uint64) (*kernel.Task, gsa.StaticProfile, error) {
	prof := gsa.Analyze(prog)
	task, err := m.SpawnProgram(name, prog, ips)
	if err != nil {
		return nil, prof, err
	}
	task.RSX().SetStaticPrior(prof.RiskScore, prof.Flagged())
	return task, prof, nil
}

// Parallel reports whether the kernel will execute quanta on per-core
// worker goroutines (the configured knob minus any serial-fallback
// condition: single core, detailed mode, attached observer).
func (m *Machine) Parallel() bool { return m.kern.ParallelActive() }

// Run advances simulated time by d (to the first quantum boundary at or
// past Now()+d).
func (m *Machine) Run(d time.Duration) { m.kern.Run(d) }

// RunTo advances simulated time to the first quantum boundary at or past
// the absolute time end.
func (m *Machine) RunTo(end time.Duration) { m.kern.RunTo(end) }

// FastForward is FastForwardTo(Now()+d), reporting only acceptance.
func (m *Machine) FastForward(d time.Duration) bool { return m.kern.FastForward(d) }

// FastForwardTo advances simulated time to the first quantum boundary at
// or past end analytically when the machine is quiescent — nothing
// runnable, or a runnable set of rate models and replaying catalog
// programs whose slice plan is stationary — leaving all observable state
// bit-identical to RunTo(end).
// ok = false means no state changed and the caller must RunTo(end)
// instead. On success horizon is the start of the next quantum that could
// raise an alert or reset a monitoring window (kernel.NoHorizon if none):
// fleets leave the machine parked until a round barrier passes it. See
// kernel.FastForwardTo.
func (m *Machine) FastForwardTo(end time.Duration) (horizon time.Duration, ok bool) {
	return m.kern.FastForwardTo(end)
}

// RunUntilAlert runs until an alert fires or the duration elapses.
func (m *Machine) RunUntilAlert(d time.Duration) bool {
	return m.kern.RunUntilAlert(d)
}

// Now returns the machine's current simulated time.
func (m *Machine) Now() time.Duration { return m.kern.Now() }

// Alerts returns all raised alerts.
func (m *Machine) Alerts() []kernel.Alert { return m.kern.Alerts() }

// OnAlert registers an alert callback.
func (m *Machine) OnAlert(fn func(kernel.Alert)) { m.kern.OnAlert(fn) }
