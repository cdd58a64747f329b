package miner

import (
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/kernel"
)

// Coin selects the cryptocurrency being mined, with rates calibrated to
// the paper's Table III measurements of live-service mining.
type Coin string

// Supported coins.
const (
	Monero Coin = "monero"
	Zcash  Coin = "zcash"
)

// CoinRates holds the per-hour instruction-class rates of full-speed
// mining on the Table I machine (all four cores, Table III, in absolute
// instructions per hour).
type CoinRates struct {
	RotatePerHour float64
	ShiftPerHour  float64
	XORPerHour    float64
	ORPerHour     float64
	InstrPerHour  float64
	HashesPerSec  float64 // observed service hash rate (Figure 2: 647 H/s)
}

// coinRates holds each coin's calibrated rates, Monero first. Rates
// copies from this table rather than building a literal: a struct built
// field by field and then copied whole stalls on store forwarding, which
// cost every single-slice RunSlice call about 10 ns.
var coinRates = [2]CoinRates{
	{
		RotatePerHour: 83.1 * bil,
		ShiftPerHour:  10.2 * bil,
		XORPerHour:    248.3 * bil,
		ORPerHour:     60 * bil,
		InstrPerHour:  1800 * bil,
		HashesPerSec:  647,
	},
	{
		RotatePerHour: 27.9 * bil,
		ShiftPerHour:  1200 * bil,
		XORPerHour:    1800 * bil,
		ORPerHour:     400 * bil,
		InstrPerHour:  9000 * bil,
		HashesPerSec:  30, // Sol/s
	},
}

const bil = 1e9

// Rates returns the calibrated rates for the coin (Monero for any coin
// but Zcash).
func Rates(c Coin) CoinRates {
	if c == Zcash {
		return coinRates[1]
	}
	return coinRates[0]
}

// RSXPerMinute returns the coin's full-speed RSX rate per minute (Monero:
// ~5.7B, Section VI-E).
func RSXPerMinute(c Coin) float64 {
	r := Rates(c)
	return (r.RotatePerHour + r.ShiftPerHour + r.XORPerHour) / 60
}

// Workload is a mining task schedulable by the simulated kernel. It models
// one mining thread; spawn several with kernel.CloneThread to model
// multi-threaded mining (they share rates through Threads). The slice is
// derived from Coin, Throttle and Threads when a slice duration is first
// run, so they must not change after the first slice.
type Workload struct {
	Coin Coin
	// Throttle is the fraction of time the miner idles to evade detection
	// (0.3 = 30% throttle = 70% of full speed, Section VI-E).
	Throttle float64
	// Threads divides the full-speed rate across that many mining threads.
	Threads int
	rng     kernel.Noise
	// slice is one slice of duration sliceD at noise 1; sliceD is 0
	// until the first slice.
	slice  kernel.RateSlice
	sliceD time.Duration

	// HashesDone accumulates this thread's hash attempts.
	HashesDone float64
}

var (
	_ kernel.Workload         = (*Workload)(nil)
	_ kernel.AnalyticWorkload = (*Workload)(nil)
)

// NewWorkload returns one mining thread of a Threads-wide miner.
func NewWorkload(coin Coin, throttle float64, threads int, seed int64) *Workload {
	if threads < 1 {
		threads = 1
	}
	if !(throttle >= 0) { // NaN clamps to 0 too
		throttle = 0
	}
	if throttle > 1 {
		throttle = 1
	}
	w := &Workload{Coin: coin, Throttle: throttle, Threads: threads}
	w.rng.Seed(seed)
	return w
}

// RunSlice implements kernel.Workload.
func (w *Workload) RunSlice(core *cpu.Core, d time.Duration) { w.RunSlices(core, d, 1) }

// RunSlices implements kernel.AnalyticWorkload: charge the core's
// counters with n slices of this thread's share of the coin's calibrated
// instruction stream, scaled by the duty cycle that throttling leaves.
// Mining is steady: tiny jitter only.
func (w *Workload) RunSlices(core *cpu.Core, d time.Duration, n int) {
	if d != w.sliceD || w.sliceD == 0 {
		duty := 1 - w.Throttle
		hours := d.Hours() * duty / float64(w.Threads)
		r := Rates(w.Coin)
		w.slice = kernel.RateSlice{
			Rotate:   r.RotatePerHour * hours,
			Shift:    r.ShiftPerHour * hours,
			XOR:      r.XORPerHour * hours,
			OR:       r.ORPerHour * hours,
			Instr:    r.InstrPerHour * hours,
			Jitter:   0.02,
			Progress: r.HashesPerSec * d.Seconds() * duty / float64(w.Threads),
		}
		w.sliceD = d
	}
	kernel.RunRateSlices(core, &w.rng, n, &w.slice, &w.HashesDone)
}

// Done implements kernel.Workload: miners run until killed.
func (w *Workload) Done() bool { return false }

// SliceShare implements kernel.SliceSharer: a throttled miner sleeps for
// its throttle fraction, freeing the core (that is the whole point of the
// evasion — keep CPU usage inconspicuous).
func (w *Workload) SliceShare() float64 { return 1 - w.Throttle }

// SpawnMiner creates a Threads-wide miner process on k: one task plus
// Threads-1 clones sharing the tgid (the multi-threaded evasion scenario
// of Section IV-B).
func SpawnMiner(k *kernel.Kernel, coin Coin, throttle float64, threads int, uid int) []*kernel.Task {
	if threads < 1 {
		threads = 1
	}
	name := string(coin)
	main := k.Spawn(name, uid, NewWorkload(coin, throttle, threads, 1))
	tasks := []*kernel.Task{main}
	for i := 1; i < threads; i++ {
		tasks = append(tasks, k.CloneThread(main, NewWorkload(coin, throttle, threads, int64(1+i))))
	}
	return tasks
}

// Profitability (Table IV): estimated Monero income versus CPU utilization
// at the paper's calibration point (0.142 XMR/hour at 100%).
const (
	fullSpeedXMRPerHour = 0.142
	usdPerXMR           = 230.85
)

// Profit is one Table IV row.
type Profit struct {
	Utilization float64 // 0..1 CPU utilization (1 - throttle)
	XMRPerHour  float64
	USDPerHour  float64
}

// EstimateProfit returns mining income at the given CPU utilization.
func EstimateProfit(utilization float64) Profit {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	xmr := fullSpeedXMRPerHour * utilization
	return Profit{Utilization: utilization, XMRPerHour: xmr, USDPerHour: xmr * usdPerXMR}
}
