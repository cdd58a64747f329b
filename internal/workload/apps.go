package workload

import (
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/kernel"
)

// Category is an application category from Table II.
type Category string

// Application categories.
const (
	CatSocial        Category = "social"
	CatCommunication Category = "communication"
	CatProductivity  Category = "productivity"
	CatEntertainment Category = "entertainment"
	CatCrypto        Category = "crypto" // wallets / DApps (Fig 16-17)
	CatBenchmark     Category = "benchmark"
	CatCryptoFunc    Category = "cryptofunc" // sustained AES/SHA runs
)

// AppProfile is a calibrated rate model of an interactive application: how
// many rotate/shift/xor/or instructions per hour of foreground use it
// retires, per Table III and Figures 12-17.
type AppProfile struct {
	Name     string
	Category Category
	// Class counts per hour of execution (absolute instructions).
	RotatePerHour float64
	ShiftPerHour  float64
	XORPerHour    float64
	ORPerHour     float64
	// InstrPerHour is the total retired-instruction rate.
	InstrPerHour float64
	// Burstiness is the coefficient of variation of per-slice intensity
	// (interactive apps are bursty; 0 = perfectly smooth).
	Burstiness float64
	Seed       int64
}

// RSXPerHour returns the profile's rotate+shift+xor total.
func (p AppProfile) RSXPerHour() float64 {
	return p.RotatePerHour + p.ShiftPerHour + p.XORPerHour
}

// RSXOPerHour additionally includes OR.
func (p AppProfile) RSXOPerHour() float64 { return p.RSXPerHour() + p.ORPerHour }

const bil = 1e9

// TableIIApps returns the applications the paper tested for a full hour
// (Table II), with class rates calibrated to Table III. Applications not
// individually broken out in Table III ("Remaining") share its 0.6B shift /
// 0.7B xor hour total, distributed with mild variation.
func TableIIApps() []AppProfile {
	apps := []AppProfile{
		// Table III rows.
		{Name: "Slack", Category: CatCommunication, RotatePerHour: 0.004 * bil, ShiftPerHour: 0.8 * bil, XORPerHour: 0.1 * bil, ORPerHour: 0.12 * bil, InstrPerHour: 900 * bil, Burstiness: 0.6, Seed: 101},
		{Name: "WhatsDesk", Category: CatCommunication, RotatePerHour: 0.004 * bil, ShiftPerHour: 0.9 * bil, XORPerHour: 0.4 * bil, ORPerHour: 0.18 * bil, InstrPerHour: 1100 * bil, Burstiness: 0.6, Seed: 102},
		{Name: "Everpad", Category: CatProductivity, RotatePerHour: 0.003 * bil, ShiftPerHour: 1.5 * bil, XORPerHour: 0.7 * bil, ORPerHour: 0.3 * bil, InstrPerHour: 1600 * bil, Burstiness: 0.5, Seed: 103},
		{Name: "AngryBirds", Category: CatEntertainment, RotatePerHour: 0.2 * bil, ShiftPerHour: 0.7 * bil, XORPerHour: 1.3 * bil, ORPerHour: 0.35 * bil, InstrPerHour: 2400 * bil, Burstiness: 0.3, Seed: 104},
		{Name: "Ramme", Category: CatSocial, RotatePerHour: 0.1 * bil, ShiftPerHour: 4.1 * bil, XORPerHour: 1.1 * bil, ORPerHour: 0.6 * bil, InstrPerHour: 3800 * bil, Burstiness: 0.5, Seed: 105},
	}
	// "Remaining" Table II applications: 0.6B shift + 0.7B xor combined.
	remaining := []struct {
		name  string
		cat   Category
		share float64 // fraction of the combined remaining budget
	}{
		{"Corebird", CatSocial, 0.10},
		{"Skype", CatCommunication, 0.09},
		{"Calc", CatProductivity, 0.05},
		{"Impress", CatProductivity, 0.05},
		{"PDF", CatProductivity, 0.04},
		{"Writer", CatProductivity, 0.06},
		{"Draw", CatProductivity, 0.05},
		{"Gimp", CatProductivity, 0.09},
		{"Peek", CatProductivity, 0.06},
		{"Eclipse", CatProductivity, 0.08},
		{"VirtualBox", CatProductivity, 0.08},
		{"Thunderbird", CatProductivity, 0.06},
		{"Calendar", CatProductivity, 0.03},
		{"Browser", CatProductivity, 0.07},
		{"Todoist", CatProductivity, 0.03},
		{"GitKraken", CatProductivity, 0.04},
		{"Spotify", CatEntertainment, 0.02},
	}
	for i, r := range remaining {
		apps = append(apps, AppProfile{
			Name:          r.name,
			Category:      r.cat,
			RotatePerHour: 0.0005 * bil * r.share * 10,
			ShiftPerHour:  0.6 * bil * r.share,
			XORPerHour:    0.7 * bil * r.share,
			ORPerHour:     0.2 * bil * r.share,
			InstrPerHour:  600 * bil * r.share * 3,
			Burstiness:    0.7,
			Seed:          int64(200 + i),
		})
	}
	return apps
}

// CryptoWalletApps returns the non-mining cryptocurrency applications of
// Figures 16-17: wallets issuing transactions against live services, plus
// the Solidity DApp. RSX ranges 0.6-1.4B/hour, RSXO 0.7-1.6B/hour.
func CryptoWalletApps() []AppProfile {
	return []AppProfile{
		{Name: "Monero-W", Category: CatCrypto, RotatePerHour: 0.05 * bil, ShiftPerHour: 0.25 * bil, XORPerHour: 0.30 * bil, ORPerHour: 0.10 * bil, InstrPerHour: 700 * bil, Burstiness: 0.8, Seed: 301},
		{Name: "Zcash-W", Category: CatCrypto, RotatePerHour: 0.06 * bil, ShiftPerHour: 0.34 * bil, XORPerHour: 0.40 * bil, ORPerHour: 0.12 * bil, InstrPerHour: 800 * bil, Burstiness: 0.8, Seed: 302},
		{Name: "Bitcoin-W", Category: CatCrypto, RotatePerHour: 0.08 * bil, ShiftPerHour: 0.42 * bil, XORPerHour: 0.50 * bil, ORPerHour: 0.14 * bil, InstrPerHour: 900 * bil, Burstiness: 0.8, Seed: 303},
		{Name: "Ethereum-W", Category: CatCrypto, RotatePerHour: 0.12 * bil, ShiftPerHour: 0.58 * bil, XORPerHour: 0.70 * bil, ORPerHour: 0.20 * bil, InstrPerHour: 1200 * bil, Burstiness: 0.8, Seed: 304},
		{Name: "Litecoin-W", Category: CatCrypto, RotatePerHour: 0.06 * bil, ShiftPerHour: 0.28 * bil, XORPerHour: 0.36 * bil, ORPerHour: 0.10 * bil, InstrPerHour: 750 * bil, Burstiness: 0.8, Seed: 305},
		{Name: "DApp", Category: CatCrypto, RotatePerHour: 0.07 * bil, ShiftPerHour: 0.38 * bil, XORPerHour: 0.45 * bil, ORPerHour: 0.13 * bil, InstrPerHour: 850 * bil, Burstiness: 0.9, Seed: 306},
	}
}

// CryptoFunctionApps returns sustained uninterrupted runs of the core
// cryptographic functions — the only benign workloads the paper found able
// to trip the threshold (its <2% false positive rate, Section VI-C). Rates
// follow from each kernel's RSX density at full single-core speed
// (~2e9 inst/s): e.g. SHA-3 retires ~35% RSX instructions.
func CryptoFunctionApps() []AppProfile {
	const instPerHour = 2e9 * 3600
	return []AppProfile{
		{Name: "SHA2-sustained", Category: CatCryptoFunc, RotatePerHour: 0.089 * instPerHour, ShiftPerHour: 0.028 * instPerHour, XORPerHour: 0.170 * instPerHour, ORPerHour: 0.004 * instPerHour, InstrPerHour: instPerHour, Burstiness: 0.05, Seed: 401},
		{Name: "SHA3-sustained", Category: CatCryptoFunc, RotatePerHour: 0.033 * instPerHour, ShiftPerHour: 0.010 * instPerHour, XORPerHour: 0.337 * instPerHour, ORPerHour: 0.004 * instPerHour, InstrPerHour: instPerHour, Burstiness: 0.05, Seed: 402},
		{Name: "AES-sustained", Category: CatCryptoFunc, RotatePerHour: 0.000003 * instPerHour, ShiftPerHour: 0.118 * instPerHour, XORPerHour: 0.084 * instPerHour, ORPerHour: 0.020 * instPerHour, InstrPerHour: instPerHour, Burstiness: 0.05, Seed: 403},
	}
}

// AppWorkload schedules an AppProfile as a kernel task: every slice it
// injects the calibrated instruction counts into the core's counter bank —
// the same hardware path an ISA program drives — honouring whatever tag
// table the decoder currently has installed.
//
// The slice is derived from Profile when a slice duration is first run,
// so Profile must not change after the first slice.
type AppWorkload struct {
	Profile AppProfile
	rng     kernel.Noise
	// slice is one slice of duration sliceD at noise 1; sliceD is 0
	// until the first slice.
	slice  kernel.RateSlice
	sliceD time.Duration
	// Elapsed is the accumulated scheduled time.
	Elapsed time.Duration
}

var (
	_ kernel.Workload         = (*AppWorkload)(nil)
	_ kernel.AnalyticWorkload = (*AppWorkload)(nil)
)

// NewAppWorkload returns a schedulable workload for the profile.
func NewAppWorkload(p AppProfile) *AppWorkload {
	w := &AppWorkload{Profile: p}
	w.rng.Seed(p.Seed)
	return w
}

// RunSlice implements kernel.Workload.
func (w *AppWorkload) RunSlice(core *cpu.Core, d time.Duration) { w.RunSlices(core, d, 1) }

// RunSlices implements kernel.AnalyticWorkload: n consecutive slices of
// the profile's class rates under multiplicative burst noise.
func (w *AppWorkload) RunSlices(core *cpu.Core, d time.Duration, n int) {
	if d != w.sliceD || w.sliceD == 0 {
		hours := d.Hours()
		p := &w.Profile
		w.slice = kernel.RateSlice{
			Rotate: p.RotatePerHour * hours,
			Shift:  p.ShiftPerHour * hours,
			XOR:    p.XORPerHour * hours,
			OR:     p.ORPerHour * hours,
			Instr:  p.InstrPerHour * hours,
			Jitter: p.Burstiness,
		}
		w.sliceD = d
	}
	kernel.RunRateSlices(core, &w.rng, n, &w.slice, nil)
	w.Elapsed += time.Duration(n) * d
}

// Done implements kernel.Workload: interactive apps run until the
// simulation ends.
func (w *AppWorkload) Done() bool { return false }

// SliceShare implements kernel.SliceSharer: interactive applications spend
// most of their time blocked on input/network, so their core occupancy is
// their instruction rate relative to a fully busy core.
func (w *AppWorkload) SliceShare() float64 {
	const fullCorePerHour = 2e9 * 3600
	share := w.Profile.InstrPerHour / fullCorePerHour
	if share > 1 {
		return 1
	}
	return share
}
