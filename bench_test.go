package darkarts_test

import (
	"fmt"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/experiments"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

// One benchmark per table/figure of the paper's evaluation. Each iteration
// regenerates the artifact; headline values are attached as custom metrics
// so `go test -bench` output doubles as the reproduction record (the
// pretty-printed tables come from `go run ./cmd/experiments`).

// benchWindow keeps characterization benches affordable; the experiment
// scales to per-1e9 counts regardless.
const benchWindow = 2_000_000

func characterize(b *testing.B) []workload.CharacterizationResult {
	b.Helper()
	res, err := experiments.Characterization(benchWindow)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func pickResult(b *testing.B, res []workload.CharacterizationResult, name string) workload.CharacterizationResult {
	b.Helper()
	for _, r := range res {
		if r.Name == name {
			return r
		}
	}
	b.Fatalf("workload %s missing", name)
	return workload.CharacterizationResult{}
}

func BenchmarkFigure1KeccakHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Figure1()
		if len(tab.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure2HashRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2(0.2)
	}
	b.ReportMetric(miner.Rates(miner.Monero).HashesPerSec, "monero_H/s")
}

func BenchmarkTableIConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableI()
	}
}

func BenchmarkTableIIApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableII()
	}
}

func BenchmarkFigure5ShiftRight(b *testing.B) {
	var res []workload.CharacterizationResult
	for i := 0; i < b.N; i++ {
		res = characterize(b)
		experiments.Figure5(res)
	}
	b.ReportMetric(float64(pickResult(b, res, "sha2").SR), "sha2_SR_per_1B")
	b.ReportMetric(float64(pickResult(b, res, "aes").SR), "aes_SR_per_1B")
}

func BenchmarkFigure6ShiftLeft(b *testing.B) {
	var res []workload.CharacterizationResult
	for i := 0; i < b.N; i++ {
		res = characterize(b)
		experiments.Figure6(res)
	}
	b.ReportMetric(float64(pickResult(b, res, "libquantum").SL), "libquantum_SL_per_1B")
}

func BenchmarkFigure7XOR(b *testing.B) {
	var res []workload.CharacterizationResult
	for i := 0; i < b.N; i++ {
		res = characterize(b)
		experiments.Figure7(res)
	}
	b.ReportMetric(float64(pickResult(b, res, "sha2").XOR), "sha2_XOR_per_1B")
	b.ReportMetric(float64(pickResult(b, res, "sha3").XOR), "sha3_XOR_per_1B")
}

func BenchmarkFigure8RotateRight(b *testing.B) {
	var res []workload.CharacterizationResult
	for i := 0; i < b.N; i++ {
		res = characterize(b)
		experiments.Figure8(res)
	}
	b.ReportMetric(float64(pickResult(b, res, "sha2").RR), "sha2_RR_per_1B")
}

func BenchmarkFigure9RotateLeft(b *testing.B) {
	var res []workload.CharacterizationResult
	for i := 0; i < b.N; i++ {
		res = characterize(b)
		experiments.Figure9(res)
	}
	b.ReportMetric(float64(pickResult(b, res, "sha3").RL), "sha3_RL_per_1B")
}

func BenchmarkFigure10RSX(b *testing.B) {
	var res []workload.CharacterizationResult
	for i := 0; i < b.N; i++ {
		res = characterize(b)
		experiments.Figure10(res)
	}
	libq := float64(pickResult(b, res, "libquantum").RSX())
	b.ReportMetric(float64(pickResult(b, res, "sha2").RSX())/libq, "sha2_vs_libq_x")
	b.ReportMetric(float64(pickResult(b, res, "sha3").RSX())/libq, "sha3_vs_libq_x")
}

func BenchmarkFigure11RSXO(b *testing.B) {
	var res []workload.CharacterizationResult
	for i := 0; i < b.N; i++ {
		res = characterize(b)
		experiments.Figure11(res)
	}
	libq := float64(pickResult(b, res, "libquantum").RSXO())
	b.ReportMetric(float64(pickResult(b, res, "sha2").RSXO())/libq, "sha2_vs_libq_x")
}

// benchHourly shares one compressed hour-scale run across the dependent
// figure benches.
func benchHourly(b *testing.B) map[string]experiments.Table {
	b.Helper()
	res, err := experiments.HourlyResults(0.01)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]experiments.Table{
		"fig12":  experiments.Figure12(res),
		"fig13":  experiments.Figure13(res),
		"fig15":  experiments.Figure15(res),
		"fig16":  experiments.Figure16(res),
		"fig17":  experiments.Figure17(res),
		"table3": experiments.TableIII(res),
	}
}

func BenchmarkFigure12MinersVsApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := benchHourly(b)
		if len(tabs["fig12"].Rows) == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(miner.RSXPerMinute(miner.Monero)*60/1e9, "monero_RSX_B_per_h")
}

func BenchmarkFigure13RSXO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchHourly(b)["fig13"].Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure14MinuteSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15UserApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchHourly(b)["fig15"].Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure16Wallets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchHourly(b)["fig16"].Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure17WalletsRSXO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchHourly(b)["fig17"].Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTableIIIBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchHourly(b)["table3"].Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkThresholdSweep(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.ThresholdSweep()
	}
	_ = tab
	b.ReportMetric(2.5e9, "chosen_threshold")
}

func BenchmarkThrottlingDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThrottlingDetection(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVProfit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableIV()
	}
	b.ReportMetric(miner.EstimateProfit(1).USDPerHour, "usd_per_h_full")
}

func BenchmarkFigure18MLPipeline(b *testing.B) {
	var svmAt95, svmFPR float64
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Figure18(7)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Model == "SVM" {
				svmAt95 = r.DetectByTh[0.95]
				svmFPR = r.FPR
			}
		}
	}
	b.ReportMetric(svmAt95, "svm_detect_at_95pct")
	b.ReportMetric(svmFPR, "svm_fpr")
}

func BenchmarkOverhead(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Overhead(experiments.DefaultOverheadConfig())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range results {
			if r.OverheadPct > worst {
				worst = r.OverheadPct
			}
		}
	}
	b.ReportMetric(100*worst, "worst_overhead_pct")
}

// --- micro-benchmarks of the hot substrate paths ---

func BenchmarkFastEngineMIPS(b *testing.B) {
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	machine, err := cpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := workload.SPECProfileByName("povray")
	ctx, err := cpu.NewContext(p.Program(), machine.Memory(), 0x100_0000)
	if err != nil {
		b.Fatal(err)
	}
	machine.Core(0).LoadContext(ctx)
	b.ResetTimer()
	machine.Core(0).Run(uint64(b.N))
	b.SetBytes(isa.InstBytes)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkBlockCacheMIPS measures the fast engine on the mining kernels
// the defense exists to detect — the workloads whose characterization runs
// dominate the experiment wall clock. BlocksOnly is the block-cached
// engine (the default) and Uncached is the per-instruction reference loop,
// both on the same program.
func BenchmarkBlockCacheMIPS(b *testing.B) {
	kernels := []struct {
		name string
		prog *isa.Program
	}{
		{"sha3", workload.SHA3Program()},
		{"sha2", workload.SHA2Program()},
		{"aes", workload.AESProgram()},
	}
	for _, k := range kernels {
		for _, mode := range []struct {
			name    string
			noCache bool
		}{{"BlocksOnly", false}, {"Uncached", true}} {
			b.Run(k.name+"/"+mode.name, func(b *testing.B) {
				cfg := cpu.DefaultConfig()
				cfg.Cores = 1
				cfg.NoBlockCache = mode.noCache
				machine, err := cpu.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				const base = 0x100_0000
				core := machine.Core(0)
				ctx, err := cpu.NewContext(k.prog, machine.Memory(), base)
				if err != nil {
					b.Fatal(err)
				}
				core.LoadContext(ctx)
				b.ResetTimer()
				// The kernels hash a fixed message then halt; restart them
				// in place, daemon-style (as ISAWorkload does), until b.N
				// retire.
				var executed uint64
				for executed < uint64(b.N) {
					n := core.Run(uint64(b.N) - executed)
					executed += n
					if ctx.Halted {
						if ctx.Fault != nil {
							b.Fatal(ctx.Fault)
						}
						ctx.Reset(k.prog, machine.Memory(), base)
						core.LoadContext(ctx)
					}
				}
				b.SetBytes(isa.InstBytes)
				b.ReportMetric(float64(executed)/b.Elapsed().Seconds()/1e6, "MIPS")
			})
		}
	}
}

func BenchmarkDetailedEngineMIPS(b *testing.B) {
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	cfg.Mode = cpu.ModeDetailed
	machine, err := cpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := workload.SPECProfileByName("povray")
	ctx, err := cpu.NewContext(p.Program(), machine.Memory(), 0x100_0000)
	if err != nil {
		b.Fatal(err)
	}
	machine.Core(0).LoadContext(ctx)
	b.ResetTimer()
	machine.Core(0).Run(uint64(b.N))
	b.SetBytes(isa.InstBytes)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

func BenchmarkKeccakKernelOnSimulatedCPU(b *testing.B) {
	prog := workload.SHA3Program()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.CharacterizeProgram("sha3", prog, 200_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkISAMinerHashRound(b *testing.B) {
	header := miner.Header{Height: 1}.Marshal()
	key := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miner.ISAMinerHash(header, key, uint64(i))
	}
}

// BenchmarkRateSlices measures the rate-model slice routine that
// fast-forward replays: one RunSlices call of n 4 ms slices per
// iteration, on a Table II app and on one thread of a 4-thread Monero
// miner, with characterization off as on every fleet machine. n=1 is the
// per-quantum path (RunSlice); n=15000 is a minute-scale fast-forward
// batch.
func BenchmarkRateSlices(b *testing.B) {
	apps := workload.TableIIApps()
	for _, wl := range []struct {
		name string
		w    kernel.AnalyticWorkload
	}{
		{"app", workload.NewAppWorkload(apps[4])},
		{"monero", miner.NewWorkload(miner.Monero, 0, 4, 1)},
	} {
		for _, n := range []int{1, 15000} {
			b.Run(fmt.Sprintf("%s/n=%d", wl.name, n), func(b *testing.B) {
				cfg := cpu.DefaultConfig()
				cfg.Cores = 1
				machine, err := cpu.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				core := machine.Core(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n == 1 {
						wl.w.RunSlice(core, 4*time.Millisecond)
					} else {
						wl.w.RunSlices(core, 4*time.Millisecond, n)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/slice")
			})
		}
	}
}

// BenchmarkCatalogSlice measures one mixed-fleet ISA slice: an
// ISAWorkload.RunSlice of 200 instructions (a 4 ms quantum at the 50k IPS
// the mixed population runs catalog programs at), per fleet catalog
// program, with characterization off as on every fleet machine. The
// looping crypto kernels are warmed past their first HALT, so they are
// replayed from their recorded pass; the ISA miners never halt and are
// executed by the block engine.
func BenchmarkCatalogSlice(b *testing.B) {
	for _, c := range []struct {
		name string
		prog *isa.Program
	}{
		{"aes", workload.AESProgram()},
		{"blake2b", workload.Blake2bProgram()},
		{"keccak", workload.SHA3Program()},
		{"sha256", workload.SHA2Program()},
		{"xmr-isa", workload.XMRMinerProgram()},
		{"zec-isa", workload.ZecMinerProgram()},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := cpu.DefaultConfig()
			cfg.Cores = 1
			machine, err := cpu.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			const ips, slice = 50_000, 4 * time.Millisecond
			w, err := kernel.NewISAWorkload(c.prog, machine.Memory(), 0x100_0000, ips)
			if err != nil {
				b.Fatal(err)
			}
			w.Loop = true
			core := machine.Core(0)
			for i := 0; i < 1000; i++ { // 200k instructions: past every kernel's first HALT
				w.RunSlice(core, slice)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunSlice(core, slice)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slice")
			b.ReportMetric(float64(core.BlockCacheStats().Replayed)/float64(core.Counters().Retired()), "replayed_frac")
		})
	}
}
