package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"darkarts/internal/fleet"
	"darkarts/internal/workload"
)

// attacker owns every planted miner; alerts under any other planted tenant
// are false positives.
const attacker = "attacker"

// apiTenantPrefix marks tenants created by the open-loop API client. Their
// alerts are excluded from the planted population's digest, because where a
// mid-run submission lands depends on wall-clock timing.
const apiTenantPrefix = "api-"

// spec is one benchmark workload: a fleet shape, its population, and the
// simulated spans the run is cut into.
type spec struct {
	name     string
	machines int
	round    time.Duration
	period   time.Duration // monitoring window; 0 keeps the paper's 60s default
	warmup   time.Duration // simulated time run inside set-up, after population
	chunk    time.Duration // simulated time per timed Fleet.Run call
	horizon  time.Duration // absolute simulated time at which deterministic metrics are read
	api      bool          // run the open-loop API client during the timed phase
	replay   int           // machines replayed standalone in the traced run
	populate func(f *fleet.Fleet, sub submitter, rng *rand.Rand) (*population, error)
}

// population is what a workload planted before the fleet started: the
// machines running an attacker miner, the machines left empty, which the
// API client may submit to, and the ISA program instances with their
// rates, which the traced run replays on a bare core.
type population struct {
	miners   []int
	free     []int
	programs []plantedProgram
}

type plantedProgram struct {
	name string
	ips  uint64
}

// specs returns the three workloads by name. size scales them down for
// the benchmark's own tests (1 = full size): machine counts, and for isa,
// whose four machines cannot shrink, every simulated span.
func specs(size float64) map[string]spec {
	scale := func(n int) int { return max(1, int(float64(n)*size)) }
	ts := func(d time.Duration) time.Duration { return time.Duration(float64(d) * max(size, 0.1)) }
	return map[string]spec{
		"mixed": {
			name: "mixed", machines: scale(256),
			round: 500 * time.Millisecond, period: 3 * time.Second,
			warmup: time.Second, chunk: 500 * time.Millisecond, horizon: 7 * time.Second,
			replay: min(scale(256), 48), populate: populateMixed,
		},
		"isa": {
			name: "isa", machines: 4,
			round: ts(100 * time.Millisecond), period: ts(2 * time.Second),
			warmup: ts(200 * time.Millisecond), chunk: ts(200 * time.Millisecond), horizon: ts(time.Second),
			replay: 4, populate: populateISA,
		},
		"sparse": {
			name: "sparse", machines: scale(4096),
			round:  250 * time.Millisecond,
			warmup: 100 * time.Second, chunk: 50 * time.Second, horizon: 150 * time.Second,
			api: true, replay: min(scale(4096), 128), populate: populateSparse,
		},
	}
}

// config is the fleet configuration of a workload with the given worker count.
func (s spec) config(seed int64, shards int) fleet.Config {
	cfg := fleet.DefaultConfig(s.machines)
	cfg.Shards = shards
	cfg.Round = s.round
	cfg.Seed = seed
	if s.period > 0 {
		cfg.Machine.Kernel.Tunables.Period = s.period
	}
	return cfg
}

func benignTenant(machine int) string { return fmt.Sprintf("tenant-%d", machine%16) }

func isAPITenant(t string) bool { return strings.HasPrefix(t, apiTenantPrefix) }

// populateMixed plants cmd/fleetload's population: on every machine three
// Table II apps and one catalog program at 50k IPS under 16 benign tenants,
// plus a 4-thread Monero miner under the attacker on every 8th machine. The
// seed rotates the app assignment and picks the infected residue class
// among the even ones, which all put the same three catalog programs
// beside the miners: the seed changes which machines do the work, not how
// much there is.
func populateMixed(f *fleet.Fleet, sub submitter, rng *rand.Rand) (*population, error) {
	apps := workload.TableIIApps()
	catalog := f.Catalog()
	appOff, minerOff := rng.Intn(len(apps)), 2*rng.Intn(4)
	pop := &population{}
	n := len(f.Members())
	for i := 0; i < n; i++ {
		for p := 0; p < 4; p++ {
			sp := fleet.WorkloadSpec{Tenant: benignTenant(i), Machine: i, Pin: true}
			if p == 3 {
				sp.Kind, sp.Program, sp.IPS = fleet.KindProgram, catalog[(i+p)%len(catalog)], 50_000
				pop.programs = append(pop.programs, plantedProgram{sp.Program, sp.IPS})
			} else {
				sp.Kind, sp.App = fleet.KindApp, apps[(i*7+p+appOff)%len(apps)].Name
			}
			if _, err := sub.Submit(sp); err != nil {
				return nil, err
			}
		}
		if i%8 == minerOff {
			if err := plantMiner(sub, pop, i); err != nil {
				return nil, err
			}
		}
	}
	return pop, nil
}

// populateISA plants one ISA miner per machine at 200M IPS, alternating
// xmr-isa and zec-isa; the seed picks which comes first.
func populateISA(f *fleet.Fleet, sub submitter, rng *rand.Rand) (*population, error) {
	progs := []string{"xmr-isa", "zec-isa"}
	off := rng.Intn(2)
	pop := &population{}
	for i := range f.Members() {
		sp := fleet.WorkloadSpec{Tenant: attacker, Kind: fleet.KindProgram, Machine: i, Pin: true,
			Program: progs[(i+off)%2], IPS: 200_000_000}
		if _, err := sub.Submit(sp); err != nil {
			return nil, err
		}
		pop.programs = append(pop.programs, plantedProgram{sp.Program, sp.IPS})
		pop.miners = append(pop.miners, i)
	}
	return pop, nil
}

// populateSparse plants a Table II app on every 8th machine and a Monero
// miner on every 64th; every other machine stays empty for the API client.
// The seed picks both residue classes and the app rotation. Miners never
// share a machine with an app: a miner beside an app oversubscribes the
// cores, which stops the machine fast-forwarding and would make one seed
// several times the work of another.
func populateSparse(f *fleet.Fleet, sub submitter, rng *rand.Rand) (*population, error) {
	apps := workload.TableIIApps()
	appRes, appOff := rng.Intn(8), rng.Intn(len(apps))
	minerRes := 8*rng.Intn(8) + (appRes+1+rng.Intn(7))%8
	pop := &population{}
	for i := range f.Members() {
		planted := false
		if i%8 == appRes {
			app := apps[(i/8+appOff)%len(apps)].Name
			if _, err := sub.Submit(fleet.WorkloadSpec{Tenant: benignTenant(i), Kind: fleet.KindApp,
				App: app, Machine: i, Pin: true}); err != nil {
				return nil, err
			}
			planted = true
		}
		if i%64 == minerRes {
			if err := plantMiner(sub, pop, i); err != nil {
				return nil, err
			}
			planted = true
		}
		if !planted {
			pop.free = append(pop.free, i)
		}
	}
	// Hand free machines to the API client from a seed-chosen start.
	if len(pop.free) > 0 {
		k := rng.Intn(len(pop.free))
		pop.free = append(append([]int(nil), pop.free[k:]...), pop.free[:k]...)
	}
	return pop, nil
}

func plantMiner(sub submitter, pop *population, machine int) error {
	if _, err := sub.Submit(fleet.WorkloadSpec{Tenant: attacker, Kind: fleet.KindMiner,
		Machine: machine, Pin: true}); err != nil {
		return err
	}
	pop.miners = append(pop.miners, machine)
	return nil
}
