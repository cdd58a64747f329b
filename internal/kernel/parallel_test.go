package kernel_test

// Differential and edge-case tests for the parallel scheduler: every
// scenario is run twice, once with Parallel off and once on, on two
// independently constructed machines, and the observable outputs must be
// bit-identical (see DESIGN.md, "Determinism and concurrency model").
// The concurrent-accessor test is the -race companion for the
// copy-on-read accessors.

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/miner"
	"darkarts/internal/obs"
	"darkarts/internal/workload"
)

// newTestKernel builds a fresh 4-core fast-mode machine plus kernel with a
// short monitoring window so alert paths are exercised quickly.
func newTestKernel(t testing.TB, parallel bool) *kernel.Kernel {
	t.Helper()
	machine, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Parallel = parallel
	kcfg.Tunables.Period = 2 * time.Second
	return kernel.New(machine, kcfg)
}

// spinProgram is a small ALU loop that never halts: a CPU-bound,
// RSX-heavy ISA workload with zero restart overhead.
func spinProgram() *isa.Program {
	b := isa.NewBuilder("spin")
	b.Movi(isa.R1, 0x7f4a7c15)
	b.Label("loop")
	b.Op3(isa.XOR, isa.R2, isa.R2, isa.R1)
	b.OpI(isa.RORI, isa.R2, isa.R2, 13)
	b.OpI(isa.SHRI, isa.R3, isa.R2, 7)
	b.OpI(isa.ADDI, isa.R4, isa.R4, 1)
	b.Jmp("loop")
	return b.MustBuild()
}

// populate spawns the same mixed scenario on any kernel: interactive
// apps, a multi-threaded throttled miner, and a real ISA program. All
// workload randomness is seeded per profile, so two kernels populated
// this way execute identical instruction streams.
func populate(t testing.TB, k *kernel.Kernel) {
	t.Helper()
	for _, app := range workload.TableIIApps()[:4] {
		k.Spawn(app.Name, 1000, workload.NewAppWorkload(app))
	}
	miner.SpawnMiner(k, miner.Monero, 0.3, 3, 1000)
	w, err := kernel.NewISAWorkload(spinProgram(), k.Machine().Memory(), 0x200_0000, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w.Loop = true
	k.Spawn("spin", 1000, w)
}

// snapshot captures every externally observable output of a run.
type snapshot struct {
	Now     time.Duration
	Samples uint64
	Alerts  []kernel.Alert
	RSX     []uint64 // per-task thread-group totals, task order
	Sess    []uint64 // per-task session totals, task order
	Exited  []bool
	Calls   []alertCall // OnAlert deliveries, when recorded
}

// alertCall is one OnAlert delivery and the clock the callback read.
type alertCall struct {
	Alert kernel.Alert
	Now   time.Duration
}

// recordCalls registers an OnAlert callback that appends each delivery,
// with the clock it observed, to *calls.
func recordCalls(k *kernel.Kernel, calls *[]alertCall) {
	k.OnAlert(func(a kernel.Alert) {
		*calls = append(*calls, alertCall{Alert: a, Now: k.Now()})
	})
}

func snap(k *kernel.Kernel) snapshot {
	s := snapshot{Now: k.Now(), Samples: k.Samples(), Alerts: k.Alerts()}
	for _, task := range k.Tasks() {
		s.RSX = append(s.RSX, task.RSX().RSXCount())
		s.Sess = append(s.Sess, task.Session().RSXCount())
		s.Exited = append(s.Exited, task.Exited())
	}
	return s
}

func requireIdentical(t *testing.T, serial, parallel snapshot) {
	t.Helper()
	if !reflect.DeepEqual(serial.Alerts, parallel.Alerts) {
		t.Errorf("alert streams differ:\nserial:   %+v\nparallel: %+v", serial.Alerts, parallel.Alerts)
	}
	if serial.Now != parallel.Now {
		t.Errorf("clocks differ: serial %v parallel %v", serial.Now, parallel.Now)
	}
	if serial.Samples != parallel.Samples {
		t.Errorf("sample counts differ: serial %d parallel %d", serial.Samples, parallel.Samples)
	}
	if !reflect.DeepEqual(serial.RSX, parallel.RSX) {
		t.Errorf("per-tgid RSX totals differ:\nserial:   %v\nparallel: %v", serial.RSX, parallel.RSX)
	}
	if !reflect.DeepEqual(serial.Sess, parallel.Sess) {
		t.Errorf("session totals differ:\nserial:   %v\nparallel: %v", serial.Sess, parallel.Sess)
	}
	if !reflect.DeepEqual(serial.Exited, parallel.Exited) {
		t.Errorf("exit states differ:\nserial:   %v\nparallel: %v", serial.Exited, parallel.Exited)
	}
	if !reflect.DeepEqual(serial.Calls, parallel.Calls) {
		t.Errorf("OnAlert deliveries differ:\nserial:   %+v\nparallel: %+v", serial.Calls, parallel.Calls)
	}
}

// TestParallelMatchesSerial is the differential proof: the same mixed
// scenario (apps + miner threads + ISA program) run serial and parallel
// must yield byte-identical alert streams, equal counter totals, and the
// same OnAlert deliveries at the same clock.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(parallel bool) snapshot {
		k := newTestKernel(t, parallel)
		populate(t, k)
		if got := k.ParallelActive(); got != parallel {
			t.Fatalf("ParallelActive() = %v, want %v", got, parallel)
		}
		var calls []alertCall
		recordCalls(k, &calls)
		k.Run(5 * time.Second)
		s := snap(k)
		s.Calls = calls
		return s
	}
	serial := run(false)
	par := run(true)
	if len(serial.Alerts) == 0 {
		t.Fatal("scenario raised no alerts; differential test is vacuous")
	}
	requireIdentical(t, serial, par)
}

// TestParallelZeroRunnableTasks: an empty kernel must advance time
// without work, alerts, or panics in both modes.
func TestParallelZeroRunnableTasks(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		k := newTestKernel(t, parallel)
		k.Run(100 * time.Millisecond)
		if now := k.Now(); now != 100*time.Millisecond {
			t.Errorf("parallel=%v: Now() = %v, want 100ms", parallel, now)
		}
		if n := k.Samples(); n != 0 {
			t.Errorf("parallel=%v: %d samples on an idle kernel", parallel, n)
		}
		if a := k.Alerts(); len(a) != 0 {
			t.Errorf("parallel=%v: unexpected alerts %v", parallel, a)
		}
	}
}

// TestParallelMoreTasksThanCores: 8 CPU-bound tasks on 4 cores must all
// make progress, round-robin, with identical totals in both modes.
func TestParallelMoreTasksThanCores(t *testing.T) {
	const tasks = 8
	run := func(parallel bool) snapshot {
		k := newTestKernel(t, parallel)
		for i := 0; i < tasks; i++ {
			rsxPerSlice := uint64(1000 * (i + 1))
			k.Spawn("cpu-bound", 1000, &kernel.FuncWorkload{
				F: func(core *cpu.Core, d time.Duration) bool {
					core.Counters().AddRSX(rsxPerSlice)
					return false
				},
			})
		}
		k.Run(400 * time.Millisecond)
		return snap(k)
	}
	serial := run(false)
	par := run(true)
	requireIdentical(t, serial, par)
	for i, rsx := range serial.RSX {
		if rsx == 0 {
			t.Errorf("task %d was starved (0 RSX) with %d tasks on 4 cores", i, tasks)
		}
	}
}

// TestParallelTaskExitsMidRun: a workload finishing partway through a run
// must exit exactly once, at the same quantum, in both modes.
func TestParallelTaskExitsMidRun(t *testing.T) {
	run := func(parallel bool) snapshot {
		k := newTestKernel(t, parallel)
		slices := 0
		k.Spawn("short-lived", 1000, &kernel.FuncWorkload{
			F: func(core *cpu.Core, d time.Duration) bool {
				core.Counters().AddRSX(500)
				slices++
				return slices >= 3
			},
		})
		k.Spawn("daemon", 1000, &kernel.FuncWorkload{
			F: func(core *cpu.Core, d time.Duration) bool {
				core.Counters().AddRSX(100)
				return false
			},
		})
		k.Run(100 * time.Millisecond)
		if slices != 3 {
			t.Errorf("parallel=%v: short-lived task ran %d slices, want 3", parallel, slices)
		}
		return snap(k)
	}
	serial := run(false)
	par := run(true)
	requireIdentical(t, serial, par)
	if !serial.Exited[0] {
		t.Error("short-lived task did not exit")
	}
	if serial.Exited[1] {
		t.Error("daemon task exited unexpectedly")
	}
	if want := uint64(3 * 500); serial.RSX[0] != want {
		t.Errorf("short-lived task RSX = %d, want %d (no lost or extra slices)", serial.RSX[0], want)
	}
}

// TestAlertCallbackTiming: OnAlert runs after the quantum that raised the
// alert and before the next one starts, so in both modes a callback reads
// the alert's own context-switch time from Now, and every alert is
// delivered exactly once.
func TestAlertCallbackTiming(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		k := newTestKernel(t, parallel)
		miner.SpawnMiner(k, miner.Monero, 0, 4, 1000)
		var calls []alertCall
		recordCalls(k, &calls)
		k.Run(7 * time.Second)
		if len(calls) != 3 {
			t.Fatalf("parallel=%v: %d callbacks, want 3 (one per 2 s window of a full-speed miner)", parallel, len(calls))
		}
		var delivered []kernel.Alert
		for i, c := range calls {
			if c.Now != c.Alert.Time {
				t.Errorf("parallel=%v: callback %d for the alert at %v read Now() = %v", parallel, i, c.Alert.Time, c.Now)
			}
			delivered = append(delivered, c.Alert)
		}
		if got := k.Alerts(); !reflect.DeepEqual(delivered, got) {
			t.Errorf("parallel=%v: delivered %+v, raised %+v", parallel, delivered, got)
		}
	}
}

// TestRunUntilAlertExactQuantum: RunUntilAlert must return on the exact
// quantum the alert fires — same clock in both modes, the alert already
// visible, and no duplicate when the run continues.
func TestRunUntilAlertExactQuantum(t *testing.T) {
	run := func(parallel bool) (*kernel.Kernel, snapshot) {
		k := newTestKernel(t, parallel)
		miner.SpawnMiner(k, miner.Monero, 0, 4, 1000)
		if !k.RunUntilAlert(time.Minute) {
			t.Fatalf("parallel=%v: full-speed miner raised no alert", parallel)
		}
		return k, snap(k)
	}
	sk, serial := run(false)
	pk, par := run(true)
	requireIdentical(t, serial, par)
	if n := len(serial.Alerts); n == 0 {
		t.Fatal("no alerts after RunUntilAlert returned true")
	}
	last := serial.Alerts[len(serial.Alerts)-1]
	if last.Time != serial.Now {
		t.Errorf("returned %v after the alerting quantum at %v (late return)", serial.Now, last.Time)
	}
	// Continuing must not re-deliver or lose the boundary alert.
	before := len(serial.Alerts)
	sk.Run(sk.Tunables().Period)
	pk.Run(pk.Tunables().Period)
	requireIdentical(t, snap(sk), snap(pk))
	if got := len(sk.Alerts()); got <= before {
		t.Errorf("no further alerts after another full window (got %d, had %d)", got, before)
	}
}

// TestAccessorsDuringRun hammers every copy-on-read accessor from another
// goroutine while a parallel simulation runs; it exists to fail under
// `go test -race` if the accessors and the merge phase ever stop sharing
// a lock.
func TestAccessorsDuringRun(t *testing.T) {
	k := newTestKernel(t, true)
	populate(t, k)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = k.Alerts()
			_ = k.Samples()
			_ = k.Now()
			_ = k.Tunables()
			_ = k.TopRSX()
			_ = k.SampleOverheadCycles()
			for _, task := range k.Tasks() {
				_ = task.RSX().RSXCount()
			}
			if _, err := k.ProcFS().Read(kernel.ProcThreshold); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	k.Run(3 * time.Second)
	close(stop)
	wg.Wait()
	if len(k.Alerts()) == 0 {
		t.Error("scenario raised no alerts")
	}
}

// BenchmarkParallelQuantum measures the scheduler's quantum throughput
// with four CPU-bound ISA tasks saturating all four cores: the workload
// mix where the parallel execute phase has the most to win. Compare the
// serial and parallel MIPS figures; on a >=4-core host the target is
// >=2.5x (on fewer cores the parallel path degrades toward serial).
func BenchmarkParallelQuantum(b *testing.B) {
	for _, mode := range []struct {
		name     string
		parallel bool
	}{{"Serial", false}, {"Parallel", true}} {
		b.Run(mode.name, func(b *testing.B) {
			k := newTestKernel(b, mode.parallel)
			const cores = 4
			for i := 0; i < cores; i++ {
				w, err := kernel.NewISAWorkload(
					spinProgram(), k.Machine().Memory(),
					0x100_0000+uint64(i)<<22, 250_000_000)
				if err != nil {
					b.Fatal(err)
				}
				w.Loop = true
				k.Spawn("spin", 1000, w)
			}
			slice := 4 * time.Millisecond
			b.ResetTimer()
			k.Run(time.Duration(b.N) * slice)
			b.StopTimer()
			var retired uint64
			for i := 0; i < k.Machine().Cores(); i++ {
				retired += k.Machine().Core(i).Counters().Retired()
			}
			b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "MIPS")
			// Observability read-outs: what fraction of the execute window
			// the cores spent running slices, and how long the merge barrier
			// waited per quantum. These are the diagnosis metrics for the
			// serial-vs-parallel gap; see OBSERVABILITY.md.
			reg := k.Obs()
			var busy, idle float64
			for i := 0; i < k.Machine().Cores(); i++ {
				v, _ := reg.Value("sched_core_busy_ns_total", obs.CoreLabel(i))
				busy += v
				v, _ = reg.Value("sched_core_idle_ns_total", obs.CoreLabel(i))
				idle += v
			}
			if busy+idle > 0 {
				b.ReportMetric(busy/(busy+idle), "busy_frac")
			}
			quanta, _ := reg.Value("sched_quanta_total", "")
			wait, _ := reg.Value("sched_merge_wait_ns_total", "")
			if quanta > 0 {
				b.ReportMetric(wait/quanta/1e3, "merge_wait_us/q")
			}
		})
	}
}
