package kernel

import (
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/mem"
)

// ISAWorkload runs a real program on the simulated CPU. The slice's
// instruction budget is derived from the core frequency and a nominal IPC
// of 1 (fast mode accounts one cycle per instruction).
//
// A looping program whose pass the CPU's block store has recorded
// (cpu.PassTrace) is replayed from its first HALT on: each slice charges
// the core exactly what executing it would, while the context and the
// task's region stay at the last point really executed until Context
// brings them forward (DESIGN.md §5e, "Pass replay").
type ISAWorkload struct {
	ctx    *cpu.ArchContext
	freqHz uint64
	// Loop, when true, restarts the program at its entry point whenever it
	// halts (a daemon-like workload that never finishes on its own).
	Loop bool
	// entry state for restarts
	prog *isa.Program
	memo *mem.Memory
	base uint64
	// replay is the pass position of a replaying looping program.
	replay cpu.PassReplay
}

// NewISAWorkload prepares prog at base in m and wraps it as a schedulable
// workload for a machine running at freqHz.
func NewISAWorkload(prog *isa.Program, m *mem.Memory, base uint64, freqHz uint64) (*ISAWorkload, error) {
	ctx, err := cpu.NewContext(prog, m, base)
	if err != nil {
		return nil, err
	}
	return &ISAWorkload{ctx: ctx, freqHz: freqHz, prog: prog, memo: m, base: base}, nil
}

// Context exposes the architectural context (for result inspection). A
// replaying workload first brings the context and its region in memory
// to the exact state execution would have reached.
func (w *ISAWorkload) Context() *cpu.ArchContext {
	w.replay.Sync(w.ctx, w.memo)
	return w.ctx
}

// RunSlices implements AnalyticWorkload: n consecutive RunSlice calls. A
// replaying task charges each slice with its own Replay call, so blocks
// split at slice boundaries exactly as they would slice by slice.
func (w *ISAWorkload) RunSlices(core *cpu.Core, d time.Duration, n int) {
	for ; n > 0; n-- {
		w.RunSlice(core, d)
	}
}

// RunSlice implements Workload.
func (w *ISAWorkload) RunSlice(core *cpu.Core, d time.Duration) {
	budget := uint64(d.Seconds() * float64(w.freqHz))
	core.LoadContext(w.ctx)
	if w.replay.Active() {
		if core.CanReplay() {
			core.Replay(&w.replay, budget)
			return
		}
		// Detailed mode, an observer or NoBlockCache: execute from the
		// exact state.
		w.replay.Stop(w.ctx, w.memo)
	}
	for budget > 0 {
		ran := core.Run(budget)
		budget -= ran
		if !w.ctx.Halted {
			continue
		}
		if !w.Loop || w.ctx.Fault != nil {
			return
		}
		if w.replay.Start(core, w.prog, w.base) {
			core.Replay(&w.replay, budget)
			return
		}
		// Restart for daemon-style workloads. The image was validated once
		// in NewISAWorkload; LoadContext still runs because detailed mode
		// drains its timing model there.
		w.ctx.Reset(w.prog, w.memo, w.base)
		core.LoadContext(w.ctx)
	}
}

// Done implements Workload.
func (w *ISAWorkload) Done() bool {
	return w.ctx.Halted && (!w.Loop || w.ctx.Fault != nil)
}

// FuncWorkload adapts a function to the Workload interface; used by tests
// and by simple synthetic tasks. The function receives the core and slice
// and returns true when the workload has finished.
type FuncWorkload struct {
	F        func(core *cpu.Core, d time.Duration) bool // host closure, re-supplied on restore
	finished bool
}

// RunSlice implements Workload.
func (w *FuncWorkload) RunSlice(core *cpu.Core, d time.Duration) {
	if w.finished {
		return
	}
	w.finished = w.F(core, d)
}

// Done implements Workload.
func (w *FuncWorkload) Done() bool { return w.finished }
