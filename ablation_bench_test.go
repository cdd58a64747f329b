package darkarts_test

import (
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/evasion"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

// Ablation benchmarks for the design choices called out in DESIGN.md.
// Each reports its outcome as metrics (1 = detected / value) so `go test
// -bench Ablation` doubles as the ablation record.

// BenchmarkAblationCounterGranularity compares a rotate-only hardware
// counter against the paper's aggregated RSX counter when the miner's
// rotates are rewritten into shift|or sequences (equations 6a/6b).
func BenchmarkAblationCounterGranularity(b *testing.B) {
	run := func(tagSet string) float64 {
		opts := machine.DefaultOptions()
		opts.TagSet = tagSet
		opts.Kernel.Tunables.Period = 5 * time.Second
		sys, err := machine.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		prof := workload.AppProfile{
			Name: "obf-miner", Category: workload.CatCryptoFunc,
			RotatePerHour: 0,
			ShiftPerHour:  (10.2 + 2*83.1) * 1e9,
			XORPerHour:    248.3 * 1e9,
			ORPerHour:     (60 + 83.1) * 1e9,
			InstrPerHour:  1800e9,
			Seed:          1,
		}
		sys.Kernel().Spawn(prof.Name, 1000, workload.NewAppWorkload(prof))
		if sys.RunUntilAlert(30 * time.Second) {
			return 1
		}
		return 0
	}
	var rotOnly, rsx float64
	for i := 0; i < b.N; i++ {
		rotOnly = run("rotate-only")
		rsx = run("rsx")
	}
	b.ReportMetric(rotOnly, "rotate_only_detected")
	b.ReportMetric(rsx, "rsx_detected")
}

// BenchmarkAblationTgidAggregation compares thread-group aggregation
// against per-process thresholds for a 4-way split miner.
func BenchmarkAblationTgidAggregation(b *testing.B) {
	run := func(shared bool) float64 {
		machine, err := cpu.New(cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := kernel.DefaultConfig()
		cfg.Tunables.Period = 5 * time.Second
		k := kernel.New(machine, cfg)
		if shared {
			miner.SpawnMiner(k, miner.Monero, 0, 4, 1000)
		} else {
			for i := 0; i < 4; i++ {
				k.Spawn("split", 1000, miner.NewWorkload(miner.Monero, 0, 4, int64(i)))
			}
		}
		if k.RunUntilAlert(30 * time.Second) {
			return 1
		}
		return 0
	}
	var withTgid, without float64
	for i := 0; i < b.N; i++ {
		withTgid = run(true)
		without = run(false)
	}
	b.ReportMetric(withTgid, "tgid_aggregated_detected")
	b.ReportMetric(without, "per_process_detected")
}

// BenchmarkAblationSamplingFrequency measures alert latency as the
// scheduler quantum (and therefore the context-switch sampling frequency)
// grows. The window mechanism dominates latency, so sampling at coarser
// quanta must not delay detection materially — the paper's argument for
// piggy-backing on context switches rather than adding a dedicated timer.
func BenchmarkAblationSamplingFrequency(b *testing.B) {
	latency := func(slice time.Duration) float64 {
		machine, err := cpu.New(cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := kernel.DefaultConfig()
		cfg.TimeSlice = slice
		cfg.Tunables.Period = 4 * time.Second
		k := kernel.New(machine, cfg)
		miner.SpawnMiner(k, miner.Monero, 0, 4, 1000)
		if !k.RunUntilAlert(60 * time.Second) {
			return -1
		}
		return k.Alerts()[0].Time.Seconds()
	}
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		fast = latency(4 * time.Millisecond)
		slow = latency(64 * time.Millisecond)
	}
	b.ReportMetric(fast, "alert_s_4ms_quantum")
	b.ReportMetric(slow, "alert_s_64ms_quantum")
}

// BenchmarkAblationMonitoringWindow measures the window's burst-rejection:
// a one-shot RSX burst versus a sustained miner across window lengths.
func BenchmarkAblationMonitoringWindow(b *testing.B) {
	type burstWL struct{ kernel.FuncWorkload }
	run := func(period time.Duration, sustained bool) float64 {
		machine, err := cpu.New(cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := kernel.DefaultConfig()
		cfg.Tunables.Period = period
		k := kernel.New(machine, cfg)
		if sustained {
			miner.SpawnMiner(k, miner.Monero, 0, 4, 1000)
		} else {
			fired := false
			k.Spawn("burst", 1000, &kernel.FuncWorkload{F: func(c *cpu.Core, d time.Duration) bool {
				if !fired {
					// Half the per-window threshold, all at once.
					c.Counters().AddRSX(uint64(2.5e9 * period.Minutes() / 2))
					fired = true
				}
				return false
			}})
		}
		if k.RunUntilAlert(4 * period) {
			return 1
		}
		return 0
	}
	var _ = burstWL{}
	var burstShort, burstLong, minerShort, minerLong float64
	for i := 0; i < b.N; i++ {
		burstShort = run(2*time.Second, false)
		burstLong = run(10*time.Second, false)
		minerShort = run(2*time.Second, true)
		minerLong = run(10*time.Second, true)
	}
	b.ReportMetric(burstShort, "burst_detected_2s")
	b.ReportMetric(burstLong, "burst_detected_10s")
	b.ReportMetric(minerShort, "miner_detected_2s")
	b.ReportMetric(minerLong, "miner_detected_10s")
}

// BenchmarkAblationObfuscationCost measures the attacker's side of the
// obfuscation trade: instructions per keccakf permutation before and after
// the rotate rewrite — the "uneconomical" argument from the threat model.
func BenchmarkAblationObfuscationCost(b *testing.B) {
	count := func(p *isa.Program, stateOff int64) float64 {
		cfg := cpu.DefaultConfig()
		cfg.Cores = 1
		machine, err := cpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctx, err := cpu.NewContext(p, machine.Memory(), 0x100_0000)
		if err != nil {
			b.Fatal(err)
		}
		machine.Core(0).LoadContext(ctx)
		for !ctx.Halted {
			machine.Core(0).Run(1 << 22)
		}
		return float64(machine.Core(0).Counters().Retired())
	}
	prog, lay := buildKeccak(b)
	obf, err := evasion.ObfuscateRotates(prog, isa.R8, isa.R9)
	if err != nil {
		b.Fatal(err)
	}
	var plain, rewritten float64
	for i := 0; i < b.N; i++ {
		plain = count(prog, lay)
		rewritten = count(obf, lay)
	}
	b.ReportMetric(plain, "insts_native")
	b.ReportMetric(rewritten, "insts_obfuscated")
	b.ReportMetric(100*(rewritten-plain)/plain, "slowdown_pct")
}

// BenchmarkAblationNextLinePrefetch measures the I-side prefetcher's
// effect on a large straight-line program (the synthetic SPEC mixes have
// 10k-instruction bodies that overflow the 32KB L1I).
func BenchmarkAblationNextLinePrefetch(b *testing.B) {
	run := func(prefetch bool) float64 {
		cfg := cpu.DefaultConfig()
		cfg.Cores = 1
		cfg.Mode = cpu.ModeDetailed
		cfg.MemCfg.NextLinePrefetch = prefetch
		machine, err := cpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := workload.SPECProfileByName("gcc")
		ctx, err := cpu.NewContext(p.Program(), machine.Memory(), 0x100_0000)
		if err != nil {
			b.Fatal(err)
		}
		machine.Core(0).LoadContext(ctx)
		machine.Core(0).Run(400_000)
		return machine.Core(0).Counters().IPC()
	}
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = run(false)
		on = run(true)
	}
	b.ReportMetric(off, "ipc_no_prefetch")
	b.ReportMetric(on, "ipc_prefetch")
}

func buildKeccak(b *testing.B) (*isa.Program, int64) {
	b.Helper()
	prog, lay := cryptoalg.BuildKeccakFProgram()
	return prog, lay.State
}
