package fleet

import (
	"runtime"
	"testing"
	"time"
)

// seedIdleHeavy places the idle-heavy population: a single interactive app
// on every 8th machine, everything else empty. Every machine is
// fast-forward eligible (idle or purely rate-model), so this is the
// population where analytic advancement has the most to win.
func seedIdleHeavy(tb testing.TB, f *Fleet) {
	tb.Helper()
	for i := 0; i < len(f.Members()); i += 8 {
		if _, err := f.Submit(WorkloadSpec{
			Tenant: "acme", Kind: KindApp, App: "Slack", Machine: i, Pin: true,
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchFleet measures round throughput for one population/ablation cell:
// hosts/s (machine-rounds per wall second — the headline scaling figure)
// and round_ns (barrier-to-barrier wall time). assertAllocs additionally
// bounds the round loop's steady-state allocation rate, pinning the
// pooled alert batches, reused stream backing array, scratch-free
// coordinator, and in-place ISA program restarts (each would silently
// regress otherwise).
func benchFleet(b *testing.B, machines int, noFF bool, seed func(testing.TB, *Fleet), assertAllocs bool) {
	cfg := DefaultConfig(machines)
	cfg.Round = 250 * time.Millisecond
	cfg.Machine.Kernel.Tunables.Period = 2 * time.Second
	cfg.Seed = 7
	cfg.noFastForward = noFF
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	seed(b, f)
	// Two warmup rounds reach steady state: decoded-block and plan caches
	// warm, stream and pending capacities settled.
	f.Run(2 * cfg.Round)
	var m0, m1 runtime.MemStats
	if assertAllocs {
		runtime.ReadMemStats(&m0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	f.Run(time.Duration(b.N) * cfg.Round)
	b.StopTimer()
	if assertAllocs {
		runtime.ReadMemStats(&m1)
		perRound := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
		// A steady-state round allocates O(1), not O(machines): no
		// per-machine batch reslices, stream trims or scratch, and no
		// per-halt context for Mixed256's looping catalog programs.
		if limit := float64(machines) / 4; perRound > limit {
			b.Errorf("steady-state round allocates %.1f objects (limit %.0f = machines/4); the pooled round loop has regressed", perRound, limit)
		}
	}
	b.ReportMetric(float64(machines)*float64(b.N)/b.Elapsed().Seconds(), "hosts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "round_ns")
}

// BenchmarkFleetScaling is the multi-core scaling study (EXPERIMENTS.md):
// run with -cpu 1,2,4 to sweep worker counts (Shards defaults to
// GOMAXPROCS). Mixed256 is the representative fleet — interactive apps
// everywhere, ISA programs on every 3rd machine, multi-threaded miners on
// every 4th; IdleHeavy256 isolates the quiescent fast-forward win, and
// the NoFF twins ablate analytic advancement at equal population.
func BenchmarkFleetScaling(b *testing.B) {
	for _, bench := range []struct {
		name         string
		noFF         bool
		seed         func(testing.TB, *Fleet)
		assertAllocs bool
	}{
		{"Mixed256", false, func(tb testing.TB, f *Fleet) { seedWorkloads(tb, f) }, true},
		{"Mixed256NoFF", true, func(tb testing.TB, f *Fleet) { seedWorkloads(tb, f) }, true},
		{"IdleHeavy256", false, seedIdleHeavy, true},
		{"IdleHeavy256NoFF", true, seedIdleHeavy, false},
	} {
		b.Run(bench.name, func(b *testing.B) {
			benchFleet(b, 256, bench.noFF, bench.seed, bench.assertAllocs)
		})
	}
}
