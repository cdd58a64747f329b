package miner

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/kernel"
)

func TestCoinRatesMatchPaper(t *testing.T) {
	// Section VI-E: "Monero has an RSX rate of 5.7B instructions per min".
	if rate := RSXPerMinute(Monero) / 1e9; math.Abs(rate-5.69) > 0.1 {
		t.Errorf("Monero RSX/min = %.2fB", rate)
	}
	// Table III: Zcash ~3.0e3 B/hour => 50B/min.
	if rate := RSXPerMinute(Zcash) / 1e9; rate < 45 || rate > 55 {
		t.Errorf("Zcash RSX/min = %.2fB", rate)
	}
}

func TestEstimateProfitTableIV(t *testing.T) {
	rows := []struct {
		util     float64
		xmr, usd float64
	}{
		{1.00, 0.142, 32.78},
		{0.75, 0.106, 24.58},
		{0.50, 0.071, 16.39},
		{0.25, 0.035, 8.194},
		{0.05, 0.007, 1.639},
		{0.01, 0.001, 0.328},
	}
	for _, r := range rows {
		p := EstimateProfit(r.util)
		if math.Abs(p.XMRPerHour-r.xmr) > 0.001 {
			t.Errorf("util %.2f: XMR %.4f, want %.3f", r.util, p.XMRPerHour, r.xmr)
		}
		if math.Abs(p.USDPerHour-r.usd) > 0.02 {
			t.Errorf("util %.2f: USD %.3f, want %.3f", r.util, p.USDPerHour, r.usd)
		}
	}
	if EstimateProfit(-1).XMRPerHour != 0 || EstimateProfit(2).XMRPerHour != fullSpeedXMRPerHour {
		t.Error("clamping broken")
	}
}

func newKernel(t *testing.T, period time.Duration) *kernel.Kernel {
	t.Helper()
	machine, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Tunables.Period = period
	return kernel.New(machine, kcfg)
}

// TestDetectionAtPaperWindow runs miners under the paper's deployment
// tunables (one-minute window, 2.5B RSX/min) rather than the shortened
// windows of the tests below. A full-speed Monero miner retires ~5.7B RSX
// instructions per window, past 2^32, so a window sum or counter narrowed
// to 32 bits anywhere on the path wraps below the threshold and the alert
// is lost. Each case runs once per quantum (RunTo, metrics attached) and
// once analytically (FastForwardTo with no registry, as the fleet runs
// it); both must raise the same alerts.
func TestDetectionAtPaperWindow(t *testing.T) {
	cases := []struct {
		throttle  float64
		threads   int
		alert     bool
		past32bit bool
	}{
		{throttle: 0, threads: 1, alert: true, past32bit: true},
		{throttle: 0, threads: 4, alert: true, past32bit: true},
		{throttle: 0.52, threads: 1, alert: true},
		{throttle: 0.90, threads: 1},
	}
	const end = 61 * time.Second
	for _, c := range cases {
		t.Run(fmt.Sprintf("t%.2f/x%d", c.throttle, c.threads), func(t *testing.T) {
			run := func(fastForward bool) []kernel.Alert {
				machine, err := cpu.New(cpu.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				kcfg := kernel.DefaultConfig()
				if fastForward {
					kcfg.Obs = nil
				}
				k := kernel.New(machine, kcfg)
				SpawnMiner(k, Monero, c.throttle, c.threads, 1000)
				if !fastForward {
					k.RunTo(end)
				} else if _, ok := k.FastForwardTo(end); !ok {
					t.Fatal("FastForwardTo refused a rate-model miner on an uninstrumented kernel")
				}
				return k.Alerts()
			}
			stepped, analytic := run(false), run(true)
			if !reflect.DeepEqual(stepped, analytic) {
				t.Fatalf("RunTo alerts %+v != FastForwardTo alerts %+v", stepped, analytic)
			}
			if !c.alert {
				if len(stepped) != 0 {
					t.Fatalf("%.0f%%-throttled miner alerted: %+v", c.throttle*100, stepped)
				}
				return
			}
			if len(stepped) != 1 {
				t.Fatalf("got %d alerts in %s, want 1: %+v", len(stepped), end, stepped)
			}
			a := stepped[0]
			if a.Time != time.Minute {
				t.Errorf("alert at %s, want at the first window close (1m0s)", a.Time)
			}
			if a.RSXInWin <= 2_500_000_000 {
				t.Errorf("RSXInWin = %d, not above the 2.5B threshold", a.RSXInWin)
			}
			if c.past32bit && a.RSXInWin <= math.MaxUint32 {
				t.Errorf("RSXInWin = %d, want a window sum past 2^32 (~5.7e9)", a.RSXInWin)
			}
		})
	}
}

func TestMinerDetectedAt30PercentThrottle(t *testing.T) {
	k := newKernel(t, time.Second)
	SpawnMiner(k, Monero, 0.30, 1, 1000)
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("30 pct-throttled Monero miner evaded detection despite paper-reported detectability")
	}
}

func TestMinerDetectedJustAbove50PercentThrottle(t *testing.T) {
	// Paper: "our solution can detect such activity with throttling rates
	// that exceed 50%". 5.7B * 0.44 = 2.5B boundary.
	k := newKernel(t, time.Second)
	SpawnMiner(k, Monero, 0.52, 1, 1000)
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("52 pct-throttled miner evaded the threshold detector")
	}
}

func TestMinerEvadesAtExtremeThrottle(t *testing.T) {
	// At 90% throttle the RSX rate (0.57B/min) is under threshold: the
	// plain threshold detector must miss it (that is Figure 18's
	// motivation for the ML detector).
	k := newKernel(t, time.Second)
	SpawnMiner(k, Monero, 0.90, 1, 1000)
	k.Run(10 * time.Second)
	if len(k.Alerts()) != 0 {
		t.Error("90 pct-throttled miner tripped the plain threshold detector")
	}
}

func TestMultithreadedMinerStillDetected(t *testing.T) {
	k := newKernel(t, time.Second)
	tasks := SpawnMiner(k, Monero, 0, 4, 1000)
	if len(tasks) != 4 {
		t.Fatalf("spawned %d tasks", len(tasks))
	}
	for _, task := range tasks[1:] {
		if task.Tgid != tasks[0].Tgid {
			t.Fatal("threads have different tgids")
		}
	}
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("4-thread miner evaded detection")
	}
}

func TestZcashDetected(t *testing.T) {
	k := newKernel(t, time.Second)
	SpawnMiner(k, Zcash, 0, 1, 1000)
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("Zcash miner evaded detection")
	}
}
