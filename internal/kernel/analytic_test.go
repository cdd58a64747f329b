package kernel_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

// ffOptions is the fleet-member shape: serial kernel, no machine-local
// registry (the fast-forward eligibility conditions), short windows so
// miners alert within a short differential run.
func ffOptions() machine.Options {
	o := machine.DefaultOptions()
	o.Kernel.Parallel = false
	o.Kernel.Obs = nil
	o.Kernel.Tunables.Period = 2 * time.Second
	return o
}

func newFFMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(ffOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// populateRate places a rate-model-only population that exercises every
// accounting path fast-forward must reproduce: bursty interactive apps, a
// root task (excluded from monitoring), and a throttled multi-thread
// miner whose threads share one TgidRSX and alert at window crossings.
func populateRate(m *machine.Machine) {
	slack := workload.TableIIApps()[0]
	m.SpawnApp(slack)
	gimp := workload.TableIIApps()[12]
	m.SpawnApp(gimp)
	root := workload.TableIIApps()[1]
	m.Kernel().Spawn("rootd", 0, workload.NewAppWorkload(root))
	miner.SpawnMiner(m.Kernel(), miner.Monero, 0.5, 4, 1000)
}

// ffSnap captures every externally observable piece of simulation state
// the bit-identity claim covers.
type ffSnap struct {
	Now     time.Duration
	Samples uint64
	Alerts  []kernel.Alert
	RSX     []uint64 // per task, thread-group cumulative counts
	Sess    []uint64 // per task, session cumulative counts
	Banks   [][]uint64
	BB      []cpu.BBStats // per core, replayed instructions included
	ISA     []isaSnap     // per ISA task, context synced to its position
}

// isaSnap is an ISA task's architectural state: its registers, flags and
// PC, and a hash of its memory region.
type isaSnap struct {
	Regs   [isa.NumRegs]uint64
	Flags  cpu.Flags
	PC     int
	Halted bool
	Region uint64
}

func ffSnapshot(m *machine.Machine) ffSnap {
	s := ffSnap{
		Now:     m.Now(),
		Samples: m.Kernel().Samples(),
		Alerts:  m.Alerts(),
	}
	for _, t := range m.Kernel().Tasks() {
		s.RSX = append(s.RSX, t.RSX().RSXCount())
		s.Sess = append(s.Sess, t.Session().RSXCount())
		if ctx, region, ok := kernel.ISAState(t); ok {
			h := fnv.New64a()
			h.Write(region)
			s.ISA = append(s.ISA, isaSnap{Regs: ctx.Regs, Flags: ctx.Flags, PC: ctx.PC, Halted: ctx.Halted, Region: h.Sum64()})
		}
	}
	c := m.CPU()
	for i := 0; i < c.Cores(); i++ {
		b := c.Core(i).Counters()
		row := []uint64{b.RSX(), b.Retired(), b.Cycles()}
		for _, n := range b.Histogram() {
			row = append(row, n)
		}
		s.Banks = append(s.Banks, row)
		s.BB = append(s.BB, c.Core(i).BlockCacheStats())
	}
	return s
}

func compareSnaps(t *testing.T, label string, got, want ffSnap) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: fast-forwarded state diverged from simulated state\n got %+v\nwant %+v",
			label, got, want)
	}
}

// TestFastForwardMatchesRun is the differential core: round-sized
// FastForward calls must leave counters, window state, sample counts, and
// the alert stream bit-identical to Run, and the machine must stay
// convergent when ordinary Run resumes afterwards.
func TestFastForwardMatchesRun(t *testing.T) {
	ref, ff := newFFMachine(t), newFFMachine(t)
	populateRate(ref)
	populateRate(ff)
	const round = 500 * time.Millisecond
	for r := 0; r < 10; r++ {
		ref.Run(round)
		if !ff.FastForward(round) {
			t.Fatalf("round %d: FastForward refused a rate-model-only machine", r)
		}
	}
	if len(ref.Alerts()) == 0 {
		t.Fatal("reference run raised no alerts; the differential proves nothing")
	}
	compareSnaps(t, "after 10 fast-forwarded rounds", ffSnapshot(ff), ffSnapshot(ref))

	// Resuming per-quantum simulation from fast-forwarded state must stay
	// bit-identical too (runq order, coreLast, rng streams all converged).
	ref.Run(time.Second)
	ff.Run(time.Second)
	compareSnaps(t, "after resuming Run", ffSnapshot(ff), ffSnapshot(ref))
}

// TestFastForwardMixedRounds toggles fast-forward on and off round by
// round — the fleet does exactly this as a machine's eligibility
// changes — and must still match an all-simulated twin.
func TestFastForwardMixedRounds(t *testing.T) {
	ref, ff := newFFMachine(t), newFFMachine(t)
	populateRate(ref)
	populateRate(ff)
	const round = 300 * time.Millisecond
	for r := 0; r < 12; r++ {
		ref.Run(round)
		if r%2 == 0 {
			if !ff.FastForward(round) {
				t.Fatalf("round %d: FastForward refused", r)
			}
		} else {
			ff.Run(round)
		}
	}
	compareSnaps(t, "alternating fast-forward and Run", ffSnapshot(ff), ffSnapshot(ref))
}

// TestFastForwardSessionAggregation covers the session accounting path:
// fork()ed workers aggregate into the parent's session structure, and
// session-scope alerts must survive fast-forward bit for bit.
func TestFastForwardSessionAggregation(t *testing.T) {
	opts := ffOptions()
	opts.Kernel.Tunables.SessionAggregation = true
	build := func() *machine.Machine {
		m, err := machine.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		parent := m.Kernel().Spawn("dropper", 1000, workload.NewAppWorkload(workload.TableIIApps()[0]))
		// Two fork()ed mining workers: separate thread groups, one session.
		for i := 0; i < 2; i++ {
			m.Kernel().SpawnChildProcess(parent, "worker", miner.NewWorkload(miner.Monero, 0.5, 2, int64(10+i)))
		}
		return m
	}
	ref, ff := build(), build()
	for r := 0; r < 8; r++ {
		ref.Run(500 * time.Millisecond)
		if !ff.FastForward(500 * time.Millisecond) {
			t.Fatalf("round %d: FastForward refused", r)
		}
	}
	var sessionAlerts int
	for _, a := range ref.Alerts() {
		if a.Scope == kernel.ScopeSession {
			sessionAlerts++
		}
	}
	if sessionAlerts == 0 {
		t.Fatal("no session-scope alerts; the aggregation path went unexercised")
	}
	compareSnaps(t, "session aggregation", ffSnapshot(ff), ffSnapshot(ref))
}

// TestFastForwardIdle: an empty runnable set advances for free, matching
// Run's quantum-grained clock exactly.
func TestFastForwardIdle(t *testing.T) {
	ref, ff := newFFMachine(t), newFFMachine(t)
	// 1s is not a whole number of 4ms quanta times 3 — use an odd span so
	// the quantum-overshoot arithmetic is actually exercised.
	const span = 997 * time.Millisecond
	ref.Run(span)
	horizon, ok := ff.FastForwardTo(span)
	if !ok {
		t.Fatal("FastForward refused an idle machine")
	}
	if horizon != kernel.NoHorizon {
		t.Errorf("idle horizon = %v, want NoHorizon", horizon)
	}
	if ref.Now() != ff.Now() {
		t.Errorf("idle fast-forward clock %v, Run clock %v", ff.Now(), ref.Now())
	}
	if s := ff.Kernel().Samples(); s != 0 {
		t.Errorf("idle fast-forward took %d samples", s)
	}
}

// retireCounter is a retirement observer; attaching one to a core stops
// that core from replaying.
type retireCounter struct{ n uint64 }

func (o *retireCounter) Retired(int, isa.Inst) { o.n++ }

// TestFastForwardRefusesISA: a machine with an ISA task that executes real
// instructions must refuse to fast-forward, leave its state untouched, and
// then behave exactly as if FastForward had never been called. A looping
// task executes until its program's first HALT, always when its program
// never halts or the recorder refuses its pass, and whenever a core of the
// machine cannot replay, even a core the task does not run on.
func TestFastForwardRefusesISA(t *testing.T) {
	shortPass, _ := cryptoalg.BuildSHA256Program(4) // halts within 10ms at 50k IPS
	// Counts its passes in a data word that a restart does not rewrite,
	// so no two passes leave the same region and the recorder refuses it.
	b := isa.NewBuilder("counts-passes")
	b.Ld(1, 28, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.St(28, 0, 1)
	b.Halt()
	counter, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	counter.DataSize = 8
	for _, tc := range []struct {
		name string
		prog *isa.Program
		// setup adjusts the options, or the machine before anything runs.
		opts      func(o *machine.Options)
		setup     func(m *machine.Machine)
		replaying bool // whether the task replays when fast-forward refuses
		counts    bool // whether the region's first word counts passes
	}{
		// A 60,564-instruction pass: over 1s at 50k IPS.
		{name: "before-first-halt", prog: workload.SHA2Program()},
		{name: "xmr-never-halts", prog: workload.XMRMinerProgram()},
		{name: "recorder-refuses", prog: counter, counts: true},
		{name: "observer-on-idle-core", prog: shortPass, replaying: true,
			setup: func(m *machine.Machine) { m.CPU().Core(3).SetObserver(&retireCounter{}) }},
		{name: "no-block-cache", prog: shortPass,
			opts: func(o *machine.Options) { o.CPU.NoBlockCache = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := ffOptions()
			if tc.opts != nil {
				tc.opts(&opts)
			}
			build := func() (*machine.Machine, *kernel.Task) {
				m, err := machine.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if tc.setup != nil {
					tc.setup(m)
				}
				m.SpawnApp(workload.TableIIApps()[0])
				task, err := m.SpawnProgram(tc.prog.Name, tc.prog, 50_000)
				if err != nil {
					t.Fatal(err)
				}
				return m, task
			}
			ref, _ := build()
			ff, task := build()
			ff.Run(10 * time.Millisecond)
			ref.Run(10 * time.Millisecond)
			if got := kernel.Replaying(task); got != tc.replaying {
				t.Fatalf("task replaying = %v, want %v", got, tc.replaying)
			}
			if _, region, _ := kernel.ISAState(task); tc.counts && binary.LittleEndian.Uint64(region) < 2 {
				t.Fatalf("the task completed %d passes, want its first HALT behind it", binary.LittleEndian.Uint64(region))
			}
			before := ff.Now()
			horizon, ok := ff.FastForwardTo(time.Second)
			if ok {
				t.Fatal("FastForward accepted a machine whose ISA task executes")
			}
			if now := ff.Now(); now != before {
				t.Fatalf("refused FastForward moved the clock from %v to %v", before, now)
			}
			if horizon != before {
				t.Errorf("refusal horizon = %v, want the current time %v", horizon, before)
			}
			ref.Run(3 * time.Second)
			ff.Run(3 * time.Second)
			compareSnaps(t, "after refused fast-forward", ffSnapshot(ff), ffSnapshot(ref))
		})
	}
}

// TestFastForwardReplayedProgram: once looping catalog kernels replay
// their recorded passes, FastForwardTo accepts them beside Table II apps
// and a miner, returns the next window crossing as its horizon, and
// matches RunTo bit for bit (counter banks, block statistics, the tasks'
// synced contexts and regions) across window crossings, a firmware update
// to the RSXO tag table between spans, and the session aggregation of a
// kernel forked from an app.
func TestFastForwardReplayedProgram(t *testing.T) {
	opts := ffOptions()
	opts.Kernel.Tunables.SessionAggregation = true
	ts := opts.Kernel.TimeSlice
	keccak, _ := cryptoalg.BuildKeccakFProgram() // a 9,300-instruction pass
	blake := workload.Blake2bProgram()           // a 19,186-instruction pass
	build := func() (*machine.Machine, []*kernel.Task) {
		m, err := machine.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		k := m.Kernel()
		parent := m.SpawnApp(workload.TableIIApps()[0])
		m.SpawnApp(workload.TableIIApps()[12])
		miner.SpawnMiner(k, miner.Monero, 0.5, 2, 1000)
		bt, err := m.SpawnProgram("blake2b", blake, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		w, err := kernel.NewISAWorkload(keccak, m.CPU().Memory(), 0x4000_0000, 120_000)
		if err != nil {
			t.Fatal(err)
		}
		w.Loop = true
		kt := k.SpawnChildProcess(parent, "keccakf", w)
		return m, []*kernel.Task{bt, kt}
	}
	ref, _ := build()
	ff, kernels := build()
	const start = 500 * time.Millisecond // past both kernels' first HALT
	ref.RunTo(start)
	ff.RunTo(start)
	for _, task := range kernels {
		if !kernel.Replaying(task) {
			t.Fatalf("%s is not replaying at %v", task.Name, start)
		}
	}
	for end := start + 300*time.Millisecond; end <= 9*time.Second; end += 300 * time.Millisecond {
		if end == 4700*time.Millisecond {
			for _, m := range []*machine.Machine{ref, ff} {
				if err := m.UpdateMicrocode(2, "rsxo"); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref.RunTo(end)
		horizon, ok := ff.FastForwardTo(end)
		if !ok {
			t.Fatalf("FastForwardTo(%v) refused replaying kernels", end)
		}
		if want := ffHorizon(ff, ts); horizon != want {
			t.Errorf("FastForwardTo(%v): horizon %v, want the next window crossing %v", end, horizon, want)
		}
		compareSnaps(t, fmt.Sprintf("fast-forward to %v", end), ffSnapshot(ff), ffSnapshot(ref))
	}
	if len(ref.Alerts()) == 0 {
		t.Fatal("reference run raised no alerts; the crossings went unexercised")
	}
	var replayed uint64
	for _, bb := range ffSnapshot(ff).BB {
		replayed += bb.Replayed
	}
	if replayed == 0 {
		t.Fatal("no instructions were replayed")
	}
	ref.Run(time.Second)
	ff.Run(time.Second)
	compareSnaps(t, "after resuming Run", ffSnapshot(ff), ffSnapshot(ref))
}

// TestFastForwardRefusesOversubscribed: more CPU-bound tasks than cores
// means the slice plan rotates quantum to quantum, so the span is not
// analytic. The refusal path must restore the ready queue exactly (this
// is the buildPlan undo), proven by running both twins onward.
func TestFastForwardRefusesOversubscribed(t *testing.T) {
	build := func() *machine.Machine {
		m := newFFMachine(t)
		for i, p := range workload.CryptoFunctionApps() {
			m.SpawnApp(p) // share 1.0 each
			if i == 0 {
				m.SpawnApp(p)
			}
		}
		m.SpawnApp(workload.CryptoFunctionApps()[1])
		m.SpawnApp(workload.CryptoFunctionApps()[2]) // 6 CPU-bound tasks, 4 cores
		return m
	}
	ref, ff := build(), build()
	horizon, ok := ff.FastForwardTo(time.Second)
	if ok {
		t.Fatal("FastForward accepted an oversubscribed plan")
	}
	if horizon != 0 {
		t.Errorf("refusal horizon = %v, want the current time 0", horizon)
	}
	ref.Run(3 * time.Second)
	ff.Run(3 * time.Second)
	compareSnaps(t, "after refused oversubscribed fast-forward", ffSnapshot(ff), ffSnapshot(ref))
}

// TestFastForwardAlertCallback: alerts raised inside a fast-forwarded
// span reach the OnAlert callback in stream order.
func TestFastForwardAlertCallback(t *testing.T) {
	m := newFFMachine(t)
	populateRate(m)
	var seen []kernel.Alert
	m.OnAlert(func(a kernel.Alert) { seen = append(seen, a) })
	for r := 0; r < 10; r++ {
		if !m.FastForward(500 * time.Millisecond) {
			t.Fatalf("round %d: FastForward refused", r)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no alerts delivered through the callback")
	}
	if !reflect.DeepEqual(seen, m.Alerts()) {
		t.Errorf("callback stream %+v != alert log %+v", seen, m.Alerts())
	}
}

// TestFastForwardHorizon: the horizon fast-forward returns is the start of
// the quantum whose context switch crosses the next monitoring window, so
// the alert a full-speed miner raises there carries that quantum's end as
// its time. With monitoring off no quantum does more than count, and the
// horizon is NoHorizon.
func TestFastForwardHorizon(t *testing.T) {
	ts := ffOptions().Kernel.TimeSlice
	m := newFFMachine(t)
	miner.SpawnMiner(m.Kernel(), miner.Monero, 0, 4, 1000)
	var alerts []kernel.Alert
	m.OnAlert(func(a kernel.Alert) { alerts = append(alerts, a) })
	horizon := time.Duration(-1)
	checked := 0
	for end := 300 * time.Millisecond; end <= 9*time.Second; end += 300 * time.Millisecond {
		before := len(alerts)
		h, ok := m.FastForwardTo(end)
		if !ok {
			t.Fatalf("FastForwardTo(%v) refused a miner-only machine", end)
		}
		for _, a := range alerts[before:] {
			if a.Time != horizon+ts {
				t.Errorf("alert at %v, previous horizon %v: want the alert one quantum after the horizon", a.Time, horizon)
			}
			checked++
		}
		if now := m.Now(); h < now {
			t.Errorf("horizon %v behind the clock %v", h, now)
		}
		horizon = h
	}
	if checked < 3 {
		t.Fatalf("only %d alerts checked against a horizon", checked)
	}

	opts := ffOptions()
	opts.Kernel.Tunables.Enabled = false
	off, err := machine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	miner.SpawnMiner(off.Kernel(), miner.Monero, 0, 4, 1000)
	if h, ok := off.FastForwardTo(time.Second); !ok || h != kernel.NoHorizon {
		t.Errorf("monitoring off: FastForwardTo = (%v, %v), want (NoHorizon, true)", h, ok)
	}
}

// FuzzFastForward holds fast-forward to per-quantum simulation over
// fuzzed populations (Table II apps and miners of either coin, any
// throttle and thread count, root or not, statically flagged or not,
// forked into a parent's session or not, and optionally one looping
// Keccak-f kernel at a fuzzed rate, whose short pass replays within the
// span) and fuzzed tunables, including a period of exactly one time slice. One twin advances each round with
// FastForwardTo, falling back to RunTo on refusal as the fleet does; the
// other always runs RunTo. After every round the alert stream, sample
// count, clock, and counters must match, and an accepted horizon must be
// the start of the first quantum that crosses a monitored window:
// NoHorizon exactly when the machine is idle or nothing is monitored,
// and no alert may land before horizon plus one quantum.
func FuzzFastForward(f *testing.F) {
	// Byte order: period quanta-1, period jitter ms, divisor, threshold/1e8-1,
	// enabled, monitor root, session aggregation; app count, then per app
	// profile, uid, flag; miner count, then per miner uid, coin, throttle,
	// threads-1, flag, child; round count-1, then per round 10ms units-1
	// and jitter ms; then the kernel's rate in 10k IPS units (0: none).
	f.Add([]byte{}) // idle machine
	// Apps (one root) and a throttled flagged miner on the paper's threshold.
	f.Add([]byte{49, 1, 4, 24, 1, 1, 1, 2, 0, 1, 0, 11, 0, 0, 1, 1, 0, 128, 1, 1, 0, 3, 49, 0, 29, 3, 35, 1, 63, 2})
	// A one-quantum period with two forked miners aggregated per session.
	f.Add([]byte{0, 0, 4, 5, 1, 0, 0, 1, 0, 1, 0, 2, 1, 1, 0, 1, 0, 1, 2, 0, 64, 0, 1, 1, 2, 9, 2, 0, 1, 20, 0})
	// More tasks than cores: fast-forward refuses and the twin falls back.
	f.Add([]byte{255, 3, 2, 0, 1, 0, 1, 3, 4, 0, 1, 7, 1, 0, 14, 2, 1, 2, 1, 0, 0, 3, 0, 0, 0, 1, 255, 2, 1, 0, 4, 63, 0, 63, 1, 10, 2, 5, 3, 40, 0})
	// Monitoring disabled.
	f.Add([]byte{10, 0, 0, 24, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 2, 0, 0, 2, 20, 1})
	// A replaying kernel (200 instructions a slice) beside an app and a
	// throttled miner, with rounds on either side of its first HALT.
	f.Add([]byte{49, 1, 4, 24, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 128, 1, 0, 0, 4, 1, 0, 63, 2, 63, 0, 9, 1, 40, 3, 5})
	apps := workload.TableIIApps()
	keccak, _ := cryptoalg.BuildKeccakFProgram() // a 9,300-instruction pass
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}

		opts := ffOptions()
		ts := 4 * time.Millisecond
		opts.Kernel.TimeSlice = ts
		tun := &opts.Kernel.Tunables
		tun.Period = time.Duration(1+next())*ts + time.Duration(next()%4)*time.Millisecond
		tun.StaticPriorDivisor = uint64(next() % 5)
		if tun.StaticPriorDivisor > 1 && tun.Period/time.Duration(tun.StaticPriorDivisor) < ts {
			tun.StaticPriorDivisor = uint64(tun.Period / ts) // shortest valid flagged window
		}
		tun.ThresholdPerMin = uint64(1+next()) * 100_000_000
		tun.Enabled = next()%8 != 0
		tun.MonitorRoot = next()%4 == 0
		tun.SessionAggregation = next()%2 == 0

		type spawn struct {
			app, uid, coin, throttle, threads, flag, child int
		}
		var pop []spawn
		for i, n := 0, next()%4; i < n; i++ {
			pop = append(pop, spawn{app: 1 + next()%len(apps), uid: next() % 3, flag: next() % 2})
		}
		for i, n := 0, next()%3; i < n; i++ {
			pop = append(pop, spawn{uid: next() % 3, coin: next() % 2, throttle: next(),
				threads: 1 + next()%4, flag: next() % 2, child: next() % 2})
		}
		var ends []time.Duration
		end := time.Duration(0)
		for r, n := 0, 1+next()%6; r < n; r++ {
			end += time.Duration(1+next()%64)*10*time.Millisecond + time.Duration(next()%4)*time.Millisecond
			ends = append(ends, end)
		}
		ips := uint64(next()) * 10_000
		build := func() *machine.Machine {
			m, err := machine.New(opts)
			if err != nil {
				t.Fatalf("tunables %+v: %v", *tun, err)
			}
			k := m.Kernel()
			var parent *kernel.Task
			for i, s := range pop {
				uid := 1000 + i
				if s.uid == 0 {
					uid = 0
				}
				coin := []miner.Coin{miner.Monero, miner.Zcash}[s.coin]
				var tasks []*kernel.Task
				switch {
				case s.app > 0:
					tasks = []*kernel.Task{k.Spawn(apps[s.app-1].Name, uid, workload.NewAppWorkload(apps[s.app-1]))}
					if parent == nil {
						parent = tasks[0]
					}
				case s.child == 1 && parent != nil:
					tasks = []*kernel.Task{k.SpawnChildProcess(parent, "worker",
						miner.NewWorkload(coin, float64(s.throttle)/256, s.threads, int64(10+i)))}
				default:
					tasks = miner.SpawnMiner(k, coin, float64(s.throttle)/256, s.threads, uid)
				}
				if s.flag == 1 {
					tasks[0].RSX().SetStaticPrior(0.9, true)
				}
			}
			if ips > 0 {
				if _, err := m.SpawnProgram("keccakf", keccak, ips); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}
		ref, ff := build(), build()

		type horizonAt struct{ now, horizon time.Duration }
		var horizons []horizonAt
		for r, end := range ends {
			ref.Kernel().RunTo(end)
			horizon, ok := ff.Kernel().FastForwardTo(end)
			if !ok {
				ff.Kernel().RunTo(end)
			}
			compareSnaps(t, fmt.Sprintf("round %d to %v (fast-forward accepted: %v)", r, end, ok),
				ffSnapshot(ff), ffSnapshot(ref))
			if ok {
				if want := ffHorizon(ff, ts); horizon != want {
					t.Errorf("round %d: horizon %v at %v, want %v", r, horizon, ff.Now(), want)
				}
				horizons = append(horizons, horizonAt{ff.Now(), horizon})
			}
		}
		for _, h := range horizons {
			for _, a := range ref.Alerts() {
				if a.Time > h.now && (h.horizon == kernel.NoHorizon || a.Time < h.horizon+ts) {
					t.Errorf("alert at %v lands before horizon %v + one %v quantum (fast-forwarded to %v)",
						a.Time, h.horizon, ts, h.now)
				}
			}
		}
	})
}

// ffHorizon derives the fast-forward horizon from window arithmetic alone:
// every task in the fuzzed population was spawned at time 0, so each
// monitored accounting structure crosses its window at every multiple of
// ceil(period/ts) context switches. The horizon is the start of the
// earliest crossing quantum at or after now, or NoHorizon when nothing
// runnable is monitored.
func ffHorizon(m *machine.Machine, ts time.Duration) time.Duration {
	tun := m.Kernel().Tunables()
	if !tun.Enabled {
		return kernel.NoHorizon
	}
	n := int64(m.Now() / ts)
	horizon := kernel.NoHorizon
	seen := map[*kernel.TgidRSX]bool{}
	for _, task := range m.Kernel().Tasks() {
		if task.Exited() || (task.UID == 0 && !tun.MonitorRoot) {
			continue
		}
		groups := []*kernel.TgidRSX{task.RSX()}
		if tun.SessionAggregation {
			groups = append(groups, task.Session())
		}
		for _, g := range groups {
			if seen[g] {
				continue
			}
			seen[g] = true
			period := tun.Period
			if _, flagged := g.StaticPrior(); flagged && tun.StaticPriorDivisor > 1 {
				period /= time.Duration(tun.StaticPriorDivisor)
			}
			l := int64((period + ts - 1) / ts) // switches per window
			j := (n+1+l-1)/l*l - 1             // first crossing quantum at or after n
			horizon = min(horizon, time.Duration(j)*ts)
		}
	}
	return horizon
}
