package experiments

import (
	"fmt"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/detect"
	"darkarts/internal/kernel"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

// ThresholdSweep reproduces Section VI-C: 153 benign workloads and the two
// miners evaluated against candidate per-minute RSX thresholds. The paper
// selects 2.5B/min: 100% miner detection with the only false positives
// being the sustained cryptographic functions (<2%).
func ThresholdSweep() Table {
	var benign []float64
	var benignNames []string
	for _, p := range workload.Registry153() {
		benign = append(benign, p.RSXPerHour()/60)
		benignNames = append(benignNames, p.Name)
	}
	// Malicious corpus: both coins at the throttling levels the threshold
	// is expected to survive (none, common 30%, and 50%).
	var malicious []float64
	for _, coin := range []miner.Coin{miner.Monero, miner.Zcash} {
		full := miner.RSXPerMinute(coin)
		for _, throttle := range []float64{0, 0.30, 0.50} {
			malicious = append(malicious, full*(1-throttle))
		}
	}

	candidates := []float64{0.5e9, 1e9, 1.5e9, 2e9, 2.5e9, 3e9, 4e9, 5e9}
	points := detect.Sweep(candidates, benign, malicious)

	t := Table{
		ID:      "threshold-sweep",
		Title:   "Threshold sweep over 153 benign workloads + throttled miners",
		Columns: []string{"threshold (RSX/min)", "detection", "FPR"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmtB(p.Threshold), fmtPct(p.DetectionRate), fmtPct(p.FPR),
		})
	}
	// Name the false positives at the chosen threshold.
	chosen := detect.ThresholdDetector{PerMinute: 2.5e9}
	var fps []string
	for i, r := range benign {
		if chosen.Malicious(r) {
			fps = append(fps, benignNames[i])
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("false positives at 2.5B/min: %v (sustained crypto functions, %d/153 = %.1f%%)",
			fps, len(fps), 100*float64(len(fps))/153),
		"paper: 100% accuracy on Monero+Zcash, FPR below 2%, FPs only for uninterrupted AES/SHA-2/SHA-3")
	if roc, err := detect.ROC(benign, malicious); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("RSX-rate detector AUC over this corpus: %.3f", detect.AUC(roc)))
	}
	return t
}

// ThrottlingDetection reproduces Section VI-E's threshold-detector result:
// live kernel simulations of Monero at increasing throttle rates, recording
// whether the 2.5B/min window detector fires.
func ThrottlingDetection() (Table, error) {
	t := Table{
		ID:      "throttling",
		Title:   "Threshold detection vs miner throttling (live kernel runs)",
		Columns: []string{"throttle", "RSX/min", "detected"},
		Notes: []string{
			"paper: Monero 5.7B RSX/min; detected at the common 30% throttle and beyond 50%; evaded at extreme throttles (motivates Figure 18's ML detector)",
		},
	}
	for _, throttle := range []float64{0, 0.30, 0.50, 0.56, 0.70, 0.90, 0.95} {
		cfg := cpu.DefaultConfig()
		machine, err := cpu.New(cfg)
		if err != nil {
			return Table{}, err
		}
		kcfg := kernel.DefaultConfig()
		kcfg.Parallel = false
		kcfg.Tunables.Period = 5 * time.Second // shorter window, same rate math
		k := kernel.New(machine, kcfg)
		miner.SpawnMiner(k, miner.Monero, throttle, 4, 1000)
		detected := k.RunUntilAlert(30 * time.Second)
		rate := miner.RSXPerMinute(miner.Monero) * (1 - throttle)
		t.Rows = append(t.Rows, []string{
			fmtPct(throttle), fmtB(rate), fmt.Sprintf("%v", detected),
		})
	}
	return t, nil
}

// TableIV reproduces the profitability-vs-throttling estimate.
func TableIV() Table {
	t := Table{
		ID:      "table4",
		Title:   "Estimated profit for different throttling rates",
		Columns: []string{"CPU utilization", "XMR/hour", "USD/hour"},
		Notes:   []string{"calibrated at 0.142 XMR/h = $32.78/h for 100% utilization, as in the paper"},
	}
	for _, util := range []float64{1.00, 0.75, 0.50, 0.25, 0.05, 0.01} {
		p := miner.EstimateProfit(util)
		t.Rows = append(t.Rows, []string{
			fmtPct(util), fmt.Sprintf("%.3f", p.XMRPerHour), fmt.Sprintf("%.3f", p.USDPerHour),
		})
	}
	return t
}
