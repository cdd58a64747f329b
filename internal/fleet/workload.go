package fleet

import (
	"errors"
	"fmt"
	"sort"

	"darkarts/internal/gsa"
	"darkarts/internal/isa"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

// Workload kinds accepted by Submit and the /api/v1/workloads endpoint.
const (
	KindApp     = "app"     // calibrated Table II application rate model
	KindMiner   = "miner"   // cryptojacking miner rate model (the threat)
	KindProgram = "program" // real ISA program from the fleet catalog
)

// WorkloadSpec describes one workload submission. Tenant and Kind are
// required; the remaining fields parameterize the kind.
type WorkloadSpec struct {
	// Tenant is the owning tenant; alerts raised by this workload's thread
	// groups are attributed to it.
	Tenant string `json:"tenant"`
	// Kind is KindApp, KindMiner, or KindProgram.
	Kind string `json:"kind"`
	// Machine is the machine ID to place on. It is read only when Pin is
	// set; unpinned submissions ignore it.
	Machine int `json:"machine"`
	// Pin, when true, places on exactly Machine instead of the
	// least-loaded member.
	Pin bool `json:"pin,omitempty"`

	// App is the Table II application name (kind "app"), e.g. "Firefox".
	App string `json:"app,omitempty"`

	// Coin is "monero" (default) or "zcash" (kind "miner").
	Coin string `json:"coin,omitempty"`
	// Throttle is the miner's duty-cycle reduction in [0,1) (kind "miner").
	Throttle float64 `json:"throttle,omitempty"`
	// Threads is the miner's thread count (kind "miner", default 4, at
	// most maxMinerThreads).
	Threads int `json:"threads,omitempty"`

	// Program is a fleet catalog entry (kind "program"): "sha256",
	// "keccak", "aes", "blake2b", or — for detection experiments — the
	// real ISA miners "xmr-isa" and "zec-isa".
	Program string `json:"program,omitempty"`
	// IPS is the program's effective instruction rate (kind "program",
	// default 200000 — cheap to simulate, enough to exercise the decoder).
	// It may not exceed the machine's clock rate, Machine.CPU.FreqHz.
	IPS uint64 `json:"ips,omitempty"`
}

// maxMinerThreads bounds WorkloadSpec.Threads: each thread is a simulated
// task on the member machine, so an unbounded count from the API would
// let one submission spawn arbitrarily many.
const maxMinerThreads = 256

// maxPendingSubmissions bounds the deferred-submission queue: submissions
// made while a round runs wait there for the next barrier, so without a
// cap a client could grow it for as long as one round lasts.
const maxPendingSubmissions = 1024

// ErrSubmitBacklog is returned by Submit when the fleet is mid-round and
// maxPendingSubmissions submissions already wait for the next barrier.
// The API answers it with 429; the submission may be retried once the
// round ends.
var ErrSubmitBacklog = errors.New("fleet: deferred-submission queue full; retry after the round barrier")

// Placement reports where a submission landed.
type Placement struct {
	// Machine is the member the workload was (or will be) spawned on.
	Machine int `json:"machine"`
	// Shard is that member's worker shard.
	Shard int `json:"shard"`
	// Tgids are the spawned thread groups (one per task; a miner spawns
	// Threads thread groups). Empty when Deferred.
	Tgids []int `json:"tgids,omitempty"`
	// Deferred is true when the fleet was mid-round and the spawn happens
	// at the next round barrier (Tgids unknown until then).
	Deferred bool `json:"deferred,omitempty"`
	// Static is the guest static-analysis profile of a program submission
	// (nil for app/miner rate models, which have no ISA image to analyze).
	// What the fleet does with it is Config.StaticPolicy; the profile is
	// reported under every policy.
	Static *gsa.StaticProfile `json:"static,omitempty"`
}

// boundSpec is a submission bound to its placement decision, queued for
// application at the next round barrier.
type boundSpec struct {
	spec   WorkloadSpec
	member *Member
}

// Catalog returns the fleet's shared ISA program catalog names, sorted.
// Every machine loads catalog programs from the same *isa.Program image,
// which is what lets the fleet-scope decoded-block cache keep one decoded
// copy of each block for the whole fleet — a memory saving more than a
// decode-time one.
func (f *Fleet) Catalog() []string {
	f.ensureCatalog()
	names := make([]string, 0, len(f.catalog))
	for n := range f.catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ensureCatalog builds the shared program images once and statically
// analyzes each; concurrent callers (API handlers, Submit) synchronize on
// the Once and the maps are immutable afterwards. The crypto entries are
// the workload package's baked-input programs: each hashes a whole
// message per run, then halts and restarts.
func (f *Fleet) ensureCatalog() {
	f.catalogOnce.Do(func() {
		f.catalog = map[string]*isa.Program{
			"sha256":  workload.SHA2Program(),
			"keccak":  workload.SHA3Program(),
			"aes":     workload.AESProgram(),
			"blake2b": workload.Blake2bProgram(),
			"xmr-isa": workload.XMRMinerProgram(),
			"zec-isa": workload.ZecMinerProgram(),
		}
		names := make([]string, 0, len(f.catalog))
		for n := range f.catalog {
			names = append(names, n)
		}
		sort.Strings(names)
		f.catProfiles = make(map[string]gsa.StaticProfile, len(f.catalog))
		for _, n := range names {
			f.catProfiles[n] = gsa.Analyze(f.catalog[n])
		}
	})
}

// staticProfile returns the catalog program's static profile (catalog must
// already be ensured).
func (f *Fleet) staticProfile(name string) (gsa.StaticProfile, bool) {
	p, ok := f.catProfiles[name]
	return p, ok
}

// Submit validates spec, picks a member (least workloads placed, ties to
// the lowest machine ID, unless pinned), and spawns the workload — either
// immediately (fleet quiescent) or at the next round barrier (fleet
// running). Submissions made while the fleet is quiescent are covered by
// the fleet's determinism guarantee; mid-run submissions land at a
// barrier whose position depends on wall-clock timing, and are refused
// with ErrSubmitBacklog once maxPendingSubmissions of them wait there.
func (f *Fleet) Submit(spec WorkloadSpec) (Placement, error) {
	if spec.Tenant == "" {
		return Placement{}, fmt.Errorf("fleet: submission needs a tenant")
	}
	if err := f.validate(spec); err != nil {
		return Placement{}, err
	}
	// Static admission: program submissions carry their catalog image's
	// analysis profile; the reject policy refuses flagged programs before
	// any placement state changes.
	var static *gsa.StaticProfile
	if spec.Kind == KindProgram {
		prof, ok := f.staticProfile(spec.Program)
		if ok {
			static = &prof
			if f.om != nil {
				f.om.gsaAnalyzed.Inc()
				if prof.Flagged() {
					f.om.gsaFlagged.Inc()
				}
			}
			if f.cfg.StaticPolicy == StaticReject && prof.Flagged() {
				if f.om != nil {
					f.om.gsaRejected.Inc()
				}
				return Placement{}, fmt.Errorf("fleet: program %q statically flagged (risk %.2f, %d PoW loops): rejected by policy",
					spec.Program, prof.RiskScore, prof.PoWLoops)
			}
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.running && len(f.pendingSub) >= maxPendingSubmissions {
		return Placement{}, ErrSubmitBacklog
	}
	mem, err := f.pickLocked(spec)
	if err != nil {
		return Placement{}, err
	}
	mem.placed++
	f.placeID++
	f.tenants[spec.Tenant]++
	if f.om != nil {
		f.om.submissions.Inc()
		f.om.tenants.Set(int64(len(f.tenants)))
	}
	pl := Placement{Machine: mem.ID, Shard: mem.Shard, Static: static}
	if f.running {
		f.pendingSub = append(f.pendingSub, boundSpec{spec: spec, member: mem})
		pl.Deferred = true
		return pl, nil
	}
	tgids, err := f.applyLocked(spec, mem)
	if err != nil {
		return Placement{}, err
	}
	pl.Tgids = tgids
	return pl, nil
}

// validate rejects malformed specs before any placement state changes.
func (f *Fleet) validate(spec WorkloadSpec) error {
	switch spec.Kind {
	case KindApp:
		if _, err := appProfile(spec.App); err != nil {
			return err
		}
	case KindMiner:
		switch spec.Coin {
		case "", string(miner.Monero), string(miner.Zcash):
		default:
			return fmt.Errorf("fleet: unknown coin %q", spec.Coin)
		}
		if !(spec.Throttle >= 0 && spec.Throttle < 1) { // NaN fails too
			return fmt.Errorf("fleet: miner throttle %v outside [0,1)", spec.Throttle)
		}
		if spec.Threads > maxMinerThreads {
			return fmt.Errorf("fleet: miner threads %d above %d", spec.Threads, maxMinerThreads)
		}
	case KindProgram:
		f.ensureCatalog()
		if _, ok := f.catalog[spec.Program]; !ok {
			return fmt.Errorf("fleet: unknown catalog program %q (have %v)", spec.Program, f.Catalog())
		}
		// IPS sets how many instructions each slice runs. Above the clock a
		// slice asks for more than the core can retire in it; at 1e18 the
		// round never ends.
		if freq := f.cfg.Machine.CPU.FreqHz; spec.IPS > freq {
			return fmt.Errorf("fleet: program ips %d above the %d Hz clock", spec.IPS, freq)
		}
	default:
		return fmt.Errorf("fleet: unknown workload kind %q", spec.Kind)
	}
	return nil
}

// pickLocked chooses the member for a spec: pinned machine, or the member
// with the fewest placed workloads (ties to the lowest ID). Caller holds
// f.mu.
func (f *Fleet) pickLocked(spec WorkloadSpec) (*Member, error) {
	if spec.Pin {
		if spec.Machine < 0 || spec.Machine >= len(f.members) {
			return nil, fmt.Errorf("fleet: no machine %d (fleet has %d)", spec.Machine, len(f.members))
		}
		return f.members[spec.Machine], nil
	}
	best := f.members[0]
	for _, mem := range f.members[1:] {
		if mem.placed < best.placed {
			best = mem
		}
	}
	return best, nil
}

// applyLocked spawns a bound submission onto its member. Caller holds
// f.mu and the member's machine is quiescent (fleet idle, or at a round
// barrier).
//
//cryptojack:locked
func (f *Fleet) applyLocked(spec WorkloadSpec, mem *Member) ([]int, error) {
	var tgids []int
	switch spec.Kind {
	case KindApp:
		p, err := appProfile(spec.App)
		if err != nil {
			return nil, err
		}
		// Derive a per-placement seed so identical submission schedules
		// reproduce exactly while distinct placements decorrelate.
		p.Seed = f.cfg.Seed<<20 ^ int64(mem.ID)<<8 ^ int64(mem.placed)
		tgids = append(tgids, mem.M.SpawnApp(p).Tgid)
	case KindMiner:
		coin := miner.Coin(spec.Coin)
		if spec.Coin == "" {
			coin = miner.Monero
		}
		threads := spec.Threads
		if threads <= 0 {
			threads = 4
		}
		for _, t := range miner.SpawnMiner(mem.M.Kernel(), coin, spec.Throttle, threads, 1000) {
			tgids = append(tgids, t.Tgid)
		}
	case KindProgram:
		f.ensureCatalog()
		ips := spec.IPS
		if ips == 0 {
			ips = 200_000
		}
		t, err := mem.M.SpawnProgram(spec.Program, f.catalog[spec.Program], ips, true)
		if err != nil {
			return nil, err
		}
		// Under flag/reject the thread group carries the static prior, so
		// the member kernel confirms flagged programs on shortened windows.
		if f.cfg.StaticPolicy != StaticAdmit {
			if prof, ok := f.staticProfile(spec.Program); ok {
				t.RSX().SetStaticPrior(prof.RiskScore, prof.Flagged())
			}
		}
		tgids = append(tgids, t.Tgid)
	}
	for _, tgid := range tgids {
		f.owners[tenantKey{machine: mem.ID, tgid: tgid}] = spec.Tenant
	}
	if f.om != nil {
		f.om.tasksPlaced.Add(uint64(len(tgids)))
	}
	return tgids, nil
}

// applyPendingLocked drains the deferred-submission queue at a round
// barrier, where collect has brought every target member up to the
// barrier. Spawn errors are counted and dropped — the submitter already
// got a Deferred placement and the machine stays consistent.
//
//cryptojack:locked
func (f *Fleet) applyPendingLocked() {
	for _, b := range f.pendingSub {
		if _, err := f.applyLocked(b.spec, b.member); err != nil && f.om != nil {
			f.om.apiErrors.Inc()
		}
		// The spawn changed the runnable set, so the old horizon is stale:
		// the member is due next round.
		b.member.horizon = b.member.M.Now()
	}
	f.pendingSub = f.pendingSub[:0]
}

// appProfile finds a Table II application profile by name.
func appProfile(name string) (workload.AppProfile, error) {
	for _, p := range workload.TableIIApps() {
		if p.Name == name {
			return p, nil
		}
	}
	return workload.AppProfile{}, fmt.Errorf("fleet: unknown app %q", name)
}
