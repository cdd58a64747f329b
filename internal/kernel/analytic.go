package kernel

import (
	"math"
	"time"

	"darkarts/internal/counters"
	"darkarts/internal/cpu"
	"darkarts/internal/isa"
)

// AnalyticWorkload is a Workload whose effect on the machine can be
// advanced in closed form: RunSlices(core, d, n) must leave every piece of
// observable state — counter banks, the workload's own accumulators, and
// its random-number stream — bit-identical to n consecutive RunSlice(core,
// d) calls. Kernel fast-forward batches a task's slices only while the
// task is steady (Kernel.steady): not Done, with a constant slice share,
// and charging the same stream however its slices are grouped, so the
// scheduler's packing decision cannot change across the advanced span.
// The rate models (internal/workload, internal/miner) are always steady:
// their RunSlice is RunSlices(core, d, 1) and both run RunRateSlices,
// whose stream their golden tests pin. An ISAWorkload is steady once it
// replays its recorded pass on cores that can all replay (DESIGN.md §5e);
// before its first HALT, or when it never replays, it executes real
// instructions and is not.
type AnalyticWorkload interface {
	Workload
	// RunSlices runs n consecutive slices of duration d on core.
	RunSlices(core *cpu.Core, d time.Duration, n int)
}

// RateSlice is one slice of a rate-model workload at noise 1: the
// instructions of each class it retires (per-hour rate × slice hours),
// the coefficient of variation of its multiplicative noise, and the
// amount it adds to the workload's progress total. A workload builds it
// once per slice duration.
type RateSlice struct {
	Rotate, Shift, XOR, OR, Instr float64
	Jitter                        float64
	Progress                      float64
}

// RunRateSlices charges core's counter bank with n consecutive slices of
// s. Each slice draws the next standard normal z from rng, scales every
// class count by noise = max(0, 1+s.Jitter·z) and truncates it to an
// integer: RSX gets the sum of the classes core's tag table tags (rotate,
// shift, xor, or, in that order), retired instructions and cycles get
// Instr, and the characterization histogram, only when the bank keeps
// one, gets rotates split over ROLI/RORI, shifts over SHLI/SHRI, and XOR
// and OR. When
// progress is non-nil, s.Progress is added to it once per slice, in
// order, since n·s.Progress would round differently. Each product is
// converted explicitly so that no platform fuses it into an add.
//
// A slice is one pass of one loop: take the next word from rng's ring,
// take the ziggurat's fast path inline (Noise.norm finishes the ~1% of
// draws it rejects), clamp, sum and truncate. Banks that characterize
// take a separate, colder loop.
func RunRateSlices(core *cpu.Core, rng *Noise, n int, s *RateSlice, progress *float64) {
	bank := core.Counters()
	t := core.TagTable()
	tags := rsxTags{t.Tagged(isa.ROL), t.Tagged(isa.SHL), t.Tagged(isa.XOR), t.Tagged(isa.OR)}
	var rsxT, instT uint64
	if bank.Characterizing() {
		rsxT, instT = rateSlicesCharacterizing(bank, rng, n, s, tags)
	} else {
		rsxT, instT = rateSlices(rng, n, s, tags)
	}
	bank.AddRSX(rsxT)
	bank.AddRetired(instT)
	bank.AddCycles(instT)
	if progress != nil {
		p := *progress
		for i := 0; i < n; i++ {
			p += s.Progress
		}
		*progress = p
	}
}

// rsxTags says which of a RateSlice's classes a tag table counts as RSX.
type rsxTags struct{ rotate, shift, xor, or bool }

// rsx is a slice's RSX count at noise: the tagged classes' products,
// summed in class order.
//
//cryptojack:hotpath
func (s *RateSlice) rsx(noise float64, tags rsxTags) float64 {
	var rsx float64
	if tags.rotate {
		rsx += float64(s.Rotate * noise)
	}
	if tags.shift {
		rsx += float64(s.Shift * noise)
	}
	if tags.xor {
		rsx += float64(s.XOR * noise)
	}
	if tags.or {
		rsx += float64(s.OR * noise)
	}
	return rsx
}

// rateSlices is RunRateSlices' loop for a bank that does not
// characterize: it returns the n slices' RSX and instruction totals.
//
//cryptojack:hotpath
func rateSlices(rng *Noise, n int, s *RateSlice, tags rsxTags) (rsxT, instT uint64) {
	pos := rng.pos
	for ; n > 0; n-- {
		if pos >= noiseLen {
			rng.refill()
			pos = 0
		}
		j := zigWord(rng.ring[pos])
		pos++
		z, ok := zigFast(j)
		if !ok {
			rng.pos = pos
			z = rng.norm(j)
			pos = rng.pos
		}
		noise := 1 + float64(s.Jitter*z)
		if noise < 0 {
			noise = 0
		}
		rsxT += uint64(s.rsx(noise, tags))
		instT += uint64(s.Instr * noise)
	}
	rng.pos = pos
	return rsxT, instT
}

// rateSlicesCharacterizing is rateSlices plus the characterization
// histogram's op counts.
func rateSlicesCharacterizing(bank *counters.Bank, rng *Noise, n int, s *RateSlice, tags rsxTags) (rsxT, instT uint64) {
	for ; n > 0; n-- {
		noise := 1 + float64(s.Jitter*rng.NormFloat64())
		if noise < 0 {
			noise = 0
		}
		rsxT += uint64(s.rsx(noise, tags))
		instT += uint64(s.Instr * noise)
		rot, sh := float64(s.Rotate*noise), float64(s.Shift*noise)
		bank.AddOpCount(isa.ROLI, uint64(rot/2))
		bank.AddOpCount(isa.RORI, uint64(rot-rot/2))
		bank.AddOpCount(isa.SHLI, uint64(sh/2))
		bank.AddOpCount(isa.SHRI, uint64(sh-sh/2))
		bank.AddOpCount(isa.XOR, uint64(s.XOR*noise))
		bank.AddOpCount(isa.OR, uint64(s.OR*noise))
	}
	return rsxT, instT
}

// NoHorizon is the horizon of a kernel whose future quanta are all
// commutative accounting: nothing runnable, monitoring disabled, or no
// monitored task in the plan. Its quanta can be deferred indefinitely.
const NoHorizon = time.Duration(math.MaxInt64)

// FastForward is FastForwardTo(Now()+d), reporting only acceptance.
func (k *Kernel) FastForward(d time.Duration) bool {
	_, ok := k.FastForwardTo(k.Now() + d)
	return ok
}

// FastForwardTo advances the simulation to the first quantum boundary at
// or past end without per-quantum dispatch, iff the whole span can be
// advanced analytically: the runnable set is empty (time moves for free)
// or every runnable task is steady (rate models, and looping ISA programs
// replaying their recorded pass) with a slice plan that covers them all.
// Counter banks, RSX accumulators, window state, rng streams, the sample
// count, and any alerts raised are bit-identical to RunTo(end) — the
// differential tests in analytic_test.go hold the two paths to equality
// field by field.
//
// It returns ok = false — leaving all state untouched — when the span
// needs per-quantum simulation (an ISA task executing real instructions,
// an oversubscribed plan, or a machine-local metrics registry whose
// per-quantum observations would be skipped). Callers fall back to RunTo.
//
// On success horizon is the start of the next quantum that does anything
// beyond commutative accounting: the first monitoring-window crossing of
// a monitored thread group or session in the stationary plan, or
// NoHorizon when there is none. Until Spawn or a tunable write changes
// the kernel, every quantum before horizon can be deferred and later
// advanced in one span without changing any result. On refusal horizon
// is the current time.
//
// Alert callbacks fire after the whole span, in alert order (RunTo fires
// them per quantum; the order, which is all the fleet barrier consumes,
// is identical).
func (k *Kernel) FastForwardTo(end time.Duration) (horizon time.Duration, ok bool) {
	k.mu.Lock()
	base := len(k.alerts)
	horizon, ok = k.fastForwardLocked(end)
	fired := k.alerts[base:len(k.alerts):len(k.alerts)]
	k.mu.Unlock()
	k.deliver(fired)
	return horizon, ok
}

// fastForwardLocked advances k.now to the first quantum boundary at or
// past end (where RunTo stops), entirely analytically, and returns the
// new horizon; or does nothing and reports false. Caller holds k.mu.
//
//cryptojack:locked
func (k *Kernel) fastForwardLocked(end time.Duration) (time.Duration, bool) {
	// Pre-scan the runnable set: every runnable task must be steady for
	// the plan to be stationary across the span.
	idle := true
	for i := k.runqHead; i < len(k.runq); i++ {
		t := k.runq[i]
		if t.exited {
			continue
		}
		idle = false
		if !k.steady(t.workload) {
			return k.now, false
		}
	}
	ts := k.cfg.TimeSlice
	n := 0 // quanta RunTo would execute
	if end > k.now {
		n = int((end - k.now + ts - 1) / ts)
	}
	if idle {
		// Nothing runnable: each quantum only advances the clock.
		k.now += time.Duration(n) * ts
		return NoHorizon, true
	}
	if k.om != nil {
		// A machine-local registry observes every quantum (phase timings,
		// per-switch deltas); skipping those observations would fork the
		// metric stream, so instrumented kernels always simulate.
		return k.now, false
	}
	if n == 0 {
		return k.now, true
	}
	// Build the slice plan once. If it does not absorb the whole queue the
	// plan rotates quantum to quantum and the span is not analytic —
	// restore the queue exactly and bail.
	k.ffScratch = append(k.ffScratch[:0], k.runq[k.runqHead:]...)
	head0 := k.runqHead
	k.buildPlan()
	if k.runqHead != len(k.runq) {
		copy(k.runq[head0:], k.ffScratch)
		k.runqHead = head0
		return k.now, false
	}
	// The plan is stationary: with no exits and no queue remainder,
	// rebuildRunq reproduces pop order, so every quantum in the span would
	// build this exact plan. Between window crossings the only observable
	// per-quantum effects are commutative (sample count, cumulative RSX
	// adds — checkWindow returns before reading anything), so those quanta
	// batch into single RunSlices calls; each crossing quantum runs the
	// quantum's own execute and accountPlan so window resets, threshold
	// checks, and alert ordering (including multi-task thread groups and
	// session aggregation) match per-quantum simulation bit for bit.
	for remaining := n; remaining > 0; {
		if batch := min(remaining, k.quietQuanta()); batch > 0 {
			k.runPlanBatch(batch)
			k.now += time.Duration(batch) * ts
			remaining -= batch
			continue
		}
		// Crossing quantum: simulate it exactly.
		k.execute()
		k.accountPlan()
		k.now += ts
		remaining--
	}
	horizon := NoHorizon
	if q := k.quietQuanta(); q != math.MaxInt {
		horizon = k.now + time.Duration(q)*ts
	}
	k.rebuildRunq()
	return horizon, true
}

// steady reports whether w's slices may be batched across a span: it is
// an AnalyticWorkload that is not done, and an ISAWorkload must also be
// replaying on every core, since the plan may place it on any of them.
func (k *Kernel) steady(w Workload) bool {
	a, ok := w.(AnalyticWorkload)
	if !ok || a.Done() {
		return false
	}
	iw, ok := w.(*ISAWorkload)
	if !ok {
		return true
	}
	if !iw.replay.Active() {
		return false
	}
	for c := range k.machine.Cores() {
		if !k.machine.Core(c).CanReplay() {
			return false
		}
	}
	return true
}

// quietQuanta returns how many quanta of the current plan may run before
// one crosses a monitored group's window: the minimum of
// quantaBeforeCrossing over every accounting structure the plan touches,
// or math.MaxInt when monitoring is off or no planned task is monitored.
//
//cryptojack:locked
func (k *Kernel) quietQuanta() int {
	q := math.MaxInt
	if !k.tunables.Enabled {
		return q
	}
	for i := range k.plan {
		t := k.plan[i].task
		if t.UID == 0 && !k.tunables.MonitorRoot {
			continue
		}
		q = min(q, k.quantaBeforeCrossing(t.rsxPtr))
		if k.tunables.SessionAggregation && t.sessPtr != nil && t.sessPtr != t.rsxPtr {
			q = min(q, k.quantaBeforeCrossing(t.sessPtr))
		}
	}
	return q
}

// quantaBeforeCrossing returns how many quanta may elapse before g's next
// monitoring-window boundary: the largest j such that none of the next j
// context switches satisfies switchTime-windowStart >= period.
//
//cryptojack:locked
func (k *Kernel) quantaBeforeCrossing(g *TgidRSX) int {
	ts := k.cfg.TimeSlice
	due := k.tunables.periodFor(g) - (k.now - g.windowStart)
	if due <= ts {
		return 0 // the very next switch crosses
	}
	return int((due+ts-1)/ts) - 1
}

// runPlanBatch executes batch consecutive quanta of the stationary plan:
// per entry, one RunSlices call bracketed by counter reads stands in for
// batch per-quantum slices, and the commutative accounting (sample count,
// cumulative RSX/session adds) applies in one step. Window checks are the
// caller's responsibility — the batch must not contain a crossing.
//
//cryptojack:locked
func (k *Kernel) runPlanBatch(batch int) {
	ts := k.cfg.TimeSlice
	for i := range k.plan {
		p := &k.plan[i]
		core := k.machine.Core(p.core)
		last := k.coreLast[p.core]
		p.task.workload.(AnalyticWorkload).RunSlices(core, ts, batch)
		cur := core.Counters().RSX()
		k.coreLast[p.core] = cur
		if !k.tunables.Enabled {
			continue
		}
		t := p.task
		if t.UID == 0 && !k.tunables.MonitorRoot {
			continue
		}
		// cur-last telescopes the per-quantum deltas exactly.
		delta := cur - last
		k.samples += uint64(batch)
		t.rsxPtr.add(delta)
		if k.tunables.SessionAggregation && t.sessPtr != nil && t.sessPtr != t.rsxPtr {
			t.sessPtr.add(delta)
		}
	}
}
