package main

import (
	"math/rand"
	"reflect"
	"sort"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/fleet"
	"darkarts/internal/gsa"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/microcode"
	"darkarts/internal/miner"
	"darkarts/internal/obs"
	"darkarts/internal/workload"
)

// sliceDur is the kernel's default time slice, the unit in which workloads
// are handed CPU time.
const sliceDur = 4 * time.Millisecond

// tracedRun is the per-layer run. It runs the workload three times on
// the fleet: untraced with GOMAXPROCS workers (the end-to-end run's
// configuration, and the reference for the tracing overhead), traced with
// the same workers (every Fleet.New, Fleet.Submit and Fleet.Run call a
// span), and untraced with one worker. The planted population's alert
// stream must be identical in all three. It then replays part of the
// population on standalone machines for the machine and kernel layers,
// and times the CPU, ISA, static-analysis and workload layers in
// isolation.
func tracedRun(rep *report, sp spec, seed int64, seconds time.Duration, spansPath string) error {
	minWall := seconds / 4
	ref, err := phase{spec: sp, seed: seed, setups: 1, minWall: minWall}.run()
	if err != nil {
		return err
	}
	rec := newRecorder()
	tr, err := phase{spec: sp, seed: seed, setups: 3, minWall: minWall, apiWall: minWall, rec: rec}.run()
	if err != nil {
		return err
	}
	one, err := phase{spec: sp, seed: seed, shards: 1, setups: 1}.run()
	if err != nil {
		return err
	}
	detectionChecks(rep, sp, tr)
	rep.check(ref.det.digest == tr.det.digest && tr.det.digest == one.det.digest,
		"planted alert stream differs across runs: %d workers %016x, traced %016x, 1 worker %016x",
		ref.f.Config().Shards, ref.det.digest, tr.det.digest, one.det.digest)

	fleetLayer(rep, sp, tr, rec)
	rep.set("trace.hosts_per_s", "host-s/s", median(tr.chunkRates))
	rep.set("trace.overhead_hosts_per_s", "host-s/s", median(tr.chunkRates)-median(ref.chunkRates))
	runtimeLayer(rep, ref)
	cpuFleetLayer(rep, tr.f)
	if err := kernelLayer(rep, sp, seed, ref, rec); err != nil {
		return err
	}
	if err := isolatedLayers(rep, tr.pop, sp.machines, rec); err != nil {
		return err
	}
	if err := rec.write(spansPath); err != nil {
		return err
	}
	rep.note("%d spans written to %s", rec.len(), spansPath)
	return nil
}

// fleetLayer reports round timing, scheduler and shared-cache counters of
// the traced fleet's timed phase, and set-up call timings.
func fleetLayer(rep *report, sp spec, tr *phaseResult, rec *recorder) {
	rounds := rec.ms("fleet.Run", tr.timedSpan)
	rep.set("fleet.round_ms_p50", "ms", quantile(rounds, 0.5))
	rep.set("fleet.round_ms_p99", "ms", quantile(rounds, 0.99))
	c0, c1 := tr.c0, tr.c1
	rep.set("fleet.worker_busy_frac", "frac", ratio(c1.busyNs-c0.busyNs, c1.busyNs-c0.busyNs+c1.idleNs-c0.idleNs))
	rep.set("fleet.steals_per_round", "machines", ratio(c1.steals-c0.steals, float64(tr.rounds)))
	rep.set("fleet.ff_frac", "frac", ratio(c1.ffRounds-c0.ffRounds, float64(tr.rounds)*float64(sp.machines)))
	hits := float64(c1.shared.Hits - c0.shared.Hits)
	rep.set("fleet.shared_bb_hit_frac", "frac", ratio(hits, hits+float64(c1.shared.Misses-c0.shared.Misses)))
	rep.set("fleet.new_ms", "ms", median(rec.ms("fleet.New", 0)))
	rep.set("fleet.submit_us_p50", "us", 1000*median(rec.ms("fleet.Submit", 0)))
	rep.set("fleet.alerts_dropped", "count", c1.dropped)
}

// runtimeLayer reports the Go runtime's allocation and GC cost per
// simulated host-second over the untraced timed phase.
func runtimeLayer(rep *report, ref *phaseResult) {
	c0, c1 := ref.c0, ref.c1
	rep.set("runtime.allocs_per_host_s", "count", ratio(float64(c1.mallocs-c0.mallocs), ref.hostSec))
	rep.set("runtime.alloc_kb_per_host_s", "KiB", ratio(float64(c1.allocBytes-c0.allocBytes)/1024, ref.hostSec))
	rep.set("runtime.gc_cpu_frac", "frac", ratio(c1.gcCPU-c0.gcCPU, c1.totalCPU-c0.totalCPU))
}

// cpuFleetLayer sums the block cache, trace cache and TLB counters over
// every core of the traced fleet, and splits retired guest instructions
// into executed (block and trace engines) and modelled (rate models).
func cpuFleetLayer(rep *report, f *fleet.Fleet) {
	var bb cpu.BBStats
	var tc cpu.TraceStats
	var blocks, tlbHits, tlbMisses, retired uint64
	for _, mem := range f.Members() {
		c := mem.M.CPU()
		for i := 0; i < c.Cores(); i++ {
			core := c.Core(i)
			s := core.BlockCacheStats()
			bb.Hits += s.Hits
			bb.Misses += s.Misses
			bb.LenSum += s.LenSum
			for _, n := range s.LenCounts {
				blocks += n
			}
			t := core.TraceCacheStats()
			tc.Hits += t.Hits
			tc.Misses += t.Misses
			tc.SideExits += t.SideExits
			tc.LenSum += t.LenSum
			h, m := core.TLBStats()
			tlbHits += h
			tlbMisses += m
			retired += core.Counters().Retired()
		}
	}
	rep.set("cpu.bb_hit_frac", "frac", ratio(float64(bb.Hits), float64(bb.Hits+bb.Misses)))
	rep.set("cpu.insts_per_block", "insts", ratio(float64(bb.LenSum), float64(blocks)))
	rep.set("cpu.trace_pass_frac", "frac", ratio(float64(tc.Hits), float64(tc.Hits+blocks)))
	rep.set("cpu.trace_builds", "count", float64(tc.Misses))
	rep.set("cpu.trace_side_exit_frac", "frac", ratio(float64(tc.SideExits), float64(tc.Hits+tc.SideExits)))
	rep.set("cpu.tlb_miss_frac", "frac", ratio(float64(tlbMisses), float64(tlbHits+tlbMisses)))
	executed := bb.LenSum + tc.LenSum
	rep.note("input share: %d guest instructions executed by the block and trace engines, %d modelled by rate models (executed frac %.3g)",
		executed, retired-min(retired, executed), ratio(float64(executed), float64(retired)))
}

// kernelLayer replays the first sp.replay machines of the population on
// standalone machines up to the horizon, advancing each machine one round
// at a time as a fleet worker does: FastForward, and Run when it refuses.
// The first replay has no machine-local registry, as in the fleet, and
// times the calls; its alerts must equal the fleet's on those machines.
// The second sets Options.Kernel.Obs and reads the scheduler and detector
// counters. Instrumented kernels never fast-forward a busy machine, which
// is why the timings come from the first replay.
func kernelLayer(rep *report, sp spec, seed int64, ref *phaseResult, rec *recorder) error {
	plain, err := replay(sp, seed, nil, rec)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	if _, err := replay(sp, seed, reg, nil); err != nil {
		return err
	}
	hostSec := float64(sp.replay) * sp.horizon.Seconds()
	rep.set("kernel.run_ms_per_host_s", "ms", ratio(ms(plain.run), hostSec))
	rep.set("kernel.ff_ms_per_host_s", "ms", ratio(ms(plain.ff), hostSec))
	rep.set("kernel.ff_accept_frac", "frac", ratio(float64(plain.ffAccepted), float64(plain.ffCalls)))
	val := func(name string) float64 { v, _ := reg.Value(name, ""); return v }
	quanta := val("sched_quanta_total")
	windows := val("detect_windows_total")
	rep.set("kernel.exec_ns_per_quantum", "ns", ratio(val("sched_exec_ns_total"), quanta))
	rep.set("kernel.merge_ns_per_quantum", "ns", ratio(val("sched_merge_ns_total"), quanta))
	rep.set("kernel.samples_per_host_s", "count", ratio(val("rsx_samples_total"), hostSec))
	rep.set("kernel.windows_per_host_s", "count", ratio(windows, hostSec))
	rep.set("kernel.windows_over_frac", "frac", ratio(val("detect_windows_over_total"), windows))

	// The standalone machines must raise exactly the alerts the fleet
	// raised on them: one worker and no fleet against GOMAXPROCS workers.
	fromFleet := map[int][]kernel.Alert{}
	for _, a := range ref.f.AlertStream() {
		if a.Machine < sp.replay && a.Time <= sp.horizon && !isAPITenant(a.Tenant) {
			fromFleet[a.Machine] = append(fromFleet[a.Machine], a.Alert)
		}
	}
	for m := 0; m < sp.replay; m++ {
		rep.check(reflect.DeepEqual(plain.alerts[m], fromFleet[m]),
			"standalone machine %d raised %d alerts, the fleet %d", m, len(plain.alerts[m]), len(fromFleet[m]))
	}
	return nil
}

// replayResult is what one standalone replay measured.
type replayResult struct {
	run, ff             time.Duration
	ffCalls, ffAccepted int
	alerts              map[int][]kernel.Alert // by machine, up to the horizon
}

func replay(sp spec, seed int64, reg *obs.Registry, rec *recorder) (*replayResult, error) {
	s := sp
	s.machines = sp.replay
	cfg := s.config(seed, 1)
	cfg.Machine.Kernel.Obs = reg
	// The fleet only builds and populates the machines; they are driven
	// directly, never through Fleet.Run.
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.populate(f, f, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	res := &replayResult{alerts: map[int][]kernel.Alert{}}
	root := rec.id()
	start := time.Now()
	for now := time.Duration(0); now < s.horizon; now += s.round {
		step := min(s.round, s.horizon-now)
		for _, mem := range f.Members() {
			t0 := time.Now()
			ok := mem.M.FastForward(step)
			t1 := time.Now()
			rec.add(0, root, 0, "machine.FastForward", t0, t1)
			res.ff += t1.Sub(t0)
			res.ffCalls++
			if ok {
				res.ffAccepted++
				continue
			}
			mem.M.Run(step)
			t2 := time.Now()
			rec.add(0, root, 0, "machine.Run", t1, t2)
			res.run += t2.Sub(t1)
		}
	}
	rec.add(root, 0, 0, "replay", start, time.Now())
	for _, mem := range f.Members() {
		for _, a := range mem.M.Alerts() {
			if a.Time <= s.horizon {
				res.alerts[mem.ID] = append(res.alerts[mem.ID], a)
			}
		}
	}
	return res, nil
}

// isolatedLayers times the CPU, ISA, static-analysis and workload layers
// outside any kernel, on a bare core of a Table I CPU.
func isolatedLayers(rep *report, pop *population, machines int, rec *recorder) error {
	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	if err := (microcode.FirmwareUpdate{Version: 1, Table: microcode.RSX()}).Apply(c); err != nil {
		return err
	}
	catalog := catalogPrograms()
	core, memory := c.Core(0), c.Memory()
	const base = 0x1000_0000
	root := rec.id()
	start := time.Now()

	for _, name := range []string{"xmr-isa", "zec-isa"} {
		ctx, err := cpu.NewContext(catalog[name], memory, base)
		if err != nil {
			return err
		}
		core.LoadContext(ctx)
		core.Run(2_000_000) // decode, block-cache and trace warm-up
		var insts uint64
		t0 := time.Now()
		for time.Since(t0) < 300*time.Millisecond {
			s := time.Now()
			insts += core.Run(1_000_000)
			rec.add(0, root, 0, "cpu.Core.Run", s, time.Now())
		}
		rep.set("cpu.mips."+name, "MIPS", float64(insts)/time.Since(t0).Seconds()/1e6)
	}

	names := sortedNames(catalog)
	var newCtx, validate []float64
	for _, name := range names {
		prog := catalog[name]
		newCtx = append(newCtx, perCallUs(rec, root, "cpu.NewContext", func() {
			if _, err := cpu.NewContext(prog, memory, base); err != nil {
				panic(err) // the catalog was validated when it was built
			}
		}))
		validate = append(validate, perCallUs(rec, root, "isa.Program.Validate", func() {
			if err := prog.Validate(); err != nil {
				panic(err)
			}
		}))
	}
	rep.set("cpu.newcontext_us", "us", median(newCtx))
	rep.set("isa.validate_us", "us", median(validate))

	// Instructions per Core.Run call, driving each planted program the way
	// the kernel's ISA workload does: one slice's budget per slice, a fresh
	// context whenever the program halts. Workloads without programs use
	// the catalog at the mixed workload's rate.
	progs := pop.programs
	if len(progs) == 0 {
		for _, n := range names {
			progs = append(progs, plantedProgram{n, 50_000})
		}
	}
	var runs, insts uint64
	var restarts float64
	for _, p := range uniquePrograms(progs) {
		budget := uint64(sliceDur.Seconds() * float64(p.ips))
		slices := min(max(1, 20_000_000/budget), 2000)
		ctx, err := cpu.NewContext(catalog[p.name], memory, base)
		if err != nil {
			return err
		}
		core.LoadContext(ctx)
		var halts uint64
		for i := uint64(0); i < slices; i++ {
			for left := budget; left > 0; {
				ran := core.Run(left)
				runs++
				insts += ran
				left -= ran
				if core.Halted() {
					halts++
					if ctx, err = cpu.NewContext(catalog[p.name], memory, base); err != nil {
						return err
					}
					core.LoadContext(ctx)
				}
			}
		}
		// Halts per second of the program's own CPU time, for every planted
		// instance: the restart rate when each gets a full core.
		restarts += float64(p.count) * float64(halts) / (float64(slices) * sliceDur.Seconds())
	}
	rep.set("cpu.insts_per_run", "insts", ratio(float64(insts), float64(runs)))
	if len(pop.programs) == 0 {
		restarts = 0
	}
	rep.set("cpu.restarts_per_host_s", "count", restarts/float64(machines))

	var analyze []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for _, name := range names {
			s := time.Now()
			gsa.Analyze(catalog[name])
			rec.add(0, root, 0, "gsa.Analyze", s, time.Now())
		}
		analyze = append(analyze, ms(time.Since(t0)))
	}
	rep.set("gsa.analyze_ms", "ms", median(analyze))

	var apps []float64
	for i, p := range workload.TableIIApps() {
		p.Seed = int64(i + 1)
		w := workload.NewAppWorkload(p)
		apps = append(apps, 1000*perCallUs(rec, root, "workload.AppWorkload.RunSlice", func() { w.RunSlice(core, sliceDur) }))
	}
	rep.set("workload.app_slice_ns", "ns", median(apps))
	mw := miner.NewWorkload(miner.Monero, 0, 4, 1)
	rep.set("miner.slice_ns", "ns", 1000*perCallUs(rec, root, "miner.Workload.RunSlice", func() { mw.RunSlice(core, sliceDur) }))
	rec.add(root, 0, 0, "isolated", start, time.Now())
	return nil
}

// perCallUs calls fn in batches for about 50ms and returns the median
// batch time per call in microseconds; each batch is one span. Batches
// start at 64 calls and double until one takes at least 200µs, so cheap
// calls are not drowned by the clock reads around them.
func perCallUs(rec *recorder, parent uint64, name string, fn func()) float64 {
	batch := 64
	var per []float64
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		s := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		e := time.Now()
		if d := e.Sub(s); d < 200*time.Microsecond {
			batch *= 2
			continue
		}
		rec.add(0, parent, 0, name, s, e)
		per = append(per, float64(e.Sub(s))/float64(time.Microsecond)/float64(batch))
	}
	return median(per)
}

// catalogPrograms builds the fleet's program catalog the way the fleet
// does: the four crypto kernels and the two ISA miners, statically
// annotated.
func catalogPrograms() map[string]*isa.Program {
	sha, _ := cryptoalg.BuildSHA256Program(4)
	kec, _ := cryptoalg.BuildKeccakHashProgram(4)
	aes, _ := cryptoalg.BuildAESProgram(make([]byte, 16), 4)
	bla, _ := cryptoalg.BuildBlake2bProgram(32, 4)
	cat := map[string]*isa.Program{
		"sha256": sha, "keccak": kec, "aes": aes, "blake2b": bla,
		"xmr-isa": workload.XMRMinerProgram(), "zec-isa": workload.ZecMinerProgram(),
	}
	for _, name := range sortedNames(cat) {
		gsa.Annotate(cat[name])
	}
	return cat
}

type programCount struct {
	plantedProgram
	count int
}

// uniquePrograms groups planted program instances by name and rate.
func uniquePrograms(ps []plantedProgram) []programCount {
	var out []programCount
	idx := map[plantedProgram]int{}
	for _, p := range ps {
		i, ok := idx[p]
		if !ok {
			i = len(out)
			idx[p] = i
			out = append(out, programCount{plantedProgram: p})
		}
		out[i].count++
	}
	return out
}

func sortedNames(m map[string]*isa.Program) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// detectionChecks runs the checks common to every run of a workload and
// counts the planted miners and API requests as attempted.
func detectionChecks(rep *report, sp spec, res *phaseResult) {
	det := res.det
	benign := benignAlerts(res.f)
	rep.note("benign_alerts %d count", benign)
	rep.note("alert_digest %016x (planted population, simulated time <= %s)", det.digest, sp.horizon)
	rep.check(det.planted > 0 && len(det.ttaSec) == det.planted,
		"%d of %d planted miners alerted by %s", len(det.ttaSec), det.planted, sp.horizon)
	rep.check(benign == 0, "%d alerts owned by benign tenants", benign)
	rep.res.Attempted += det.planted
	rep.res.Failed += det.planted - len(det.ttaSec)
	if a := res.api; a != nil {
		addAPI(rep, a)
	}
}
