package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/fleet"
	"darkarts/internal/obs"
)

// phase is one fleet run of a workload: setups fleets, each set up
// (fleet.New, population, warm-up rounds) and then timed for an equal share
// of minWall, in chunks; the last fleet also runs on to the simulated
// horizon. For a workload with an API client, an API phase of apiWall
// follows on the last fleet, in which the client runs while the fleet
// keeps running. It is kept apart from the timed phase because every
// submission adds a miner for good: with the client running, the fleet's
// work per round keeps growing.
type phase struct {
	spec    spec
	seed    int64
	shards  int // fleet workers; 0 lets the fleet pick GOMAXPROCS
	setups  int
	minWall time.Duration
	apiWall time.Duration
	rec     *recorder // nil: untraced
}

// phaseResult is what one phase measured.
type phaseResult struct {
	f   *fleet.Fleet
	pop *population

	setupTimes []time.Duration
	chunkRates []float64     // simulated host-seconds per wall second, per timed chunk of every fleet
	wall       time.Duration // timed phase, all fleets
	// The last fleet's timed segment: host-seconds simulated, rounds, the
	// parent of its fleet.Run spans, and counters read at its start and end.
	hostSec   float64
	rounds    uint64
	timedSpan uint64
	c0, c1    counters
	det       detResult
	api       *apiResult
}

// counters are the cumulative fleet and Go runtime counters the traced run
// turns into per-layer rates; reading them costs the same in every run.
type counters struct {
	busyNs, idleNs, steals, ffRounds, dropped float64
	shared                                    cpu.SharedBlocksStats
	mallocs, allocBytes                       uint64
	gcCPU, totalCPU                           float64
}

func readCounters(f *fleet.Fleet) counters {
	var c counters
	reg := f.Obs()
	for w := 0; w < f.Config().Shards; w++ {
		label := obs.Label("worker", strconv.Itoa(w))
		b, _ := reg.Value("fleet_worker_busy_ns_total", label)
		i, _ := reg.Value("fleet_worker_idle_ns_total", label)
		c.busyNs += b
		c.idleNs += i
	}
	c.steals, _ = reg.Value("fleet_steals_total", "")
	c.ffRounds, _ = reg.Value("fleet_fastforward_rounds_total", "")
	c.dropped, _ = reg.Value("fleet_alerts_dropped_total", "")
	c.shared = f.SharedBlocks().Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return c
}

// detResult holds the numbers read at the simulated horizon, between two
// timed chunks. Apart from the live heap they are functions of the inputs
// alone, so they repeat exactly for one seed.
type detResult struct {
	ttaSec      []float64 // per detected planted miner: placement to first alert, simulated
	planted     int
	overheadPct float64
	digest      uint64
	heapMB      float64 // live heap after a forced GC
}

// run executes the phase. Every fleet built gets an equal share of the
// timed phase: on a shared host one fleet can run 20% slower or faster
// than the next for its whole life, and this way it weighs only its share.
// The last fleet also runs on to the horizon, and the phase's counters,
// rounds and host-seconds are those of the last fleet.
func (p phase) run() (*phaseResult, error) {
	res := &phaseResult{}
	for i := 0; i < p.setups; i++ {
		res.f, res.pop = nil, nil
		runtime.GC()
		t0 := time.Now()
		f, pop, err := p.setup()
		if err != nil {
			return nil, err
		}
		res.setupTimes = append(res.setupTimes, time.Since(t0))
		res.f, res.pop = f, pop
		p.timed(res, p.minWall/time.Duration(p.setups), i == p.setups-1)
	}
	if p.spec.api && p.apiWall > 0 {
		apiID := p.rec.id()
		client := startAPIClient(res.f, res.pop.free, p.rec)
		start := time.Now()
		for time.Since(start) < p.apiWall {
			p.runFleet(res.f, p.spec.chunk, apiID)
		}
		res.api = client.stop(res.f, p.spec.round)
		p.rec.add(apiID, 0, 0, "api", start, time.Now())
	}
	return res, nil
}

// timed runs res.f for at least wall, in chunks, recording each chunk's
// rate; the last fleet also runs until the horizon, where the
// deterministic metrics are read.
func (p phase) timed(res *phaseResult, wall time.Duration, last bool) {
	f := res.f
	machines := float64(p.spec.machines)
	startRounds := f.Rounds()
	timedID := p.rec.id()
	c0 := readCounters(f)
	var hostSec float64
	start := time.Now()
	for time.Since(start) < wall || (last && f.Now() < p.spec.horizon) {
		step := p.spec.chunk
		if now := f.Now(); now < p.spec.horizon && now+step > p.spec.horizon {
			step = p.spec.horizon - now
		}
		t := time.Now()
		p.runFleet(f, step, timedID)
		d := time.Since(t)
		res.chunkRates = append(res.chunkRates, machines*step.Seconds()/d.Seconds())
		hostSec += machines * step.Seconds()
		if last && f.Now() == p.spec.horizon {
			res.det = readDet(f, res.pop, p.spec.horizon)
		}
	}
	end := time.Now()
	p.rec.add(timedID, 0, 0, "timed", start, end)
	res.wall += end.Sub(start)
	if last {
		res.c0, res.c1 = c0, readCounters(f)
		res.rounds = f.Rounds() - startRounds
		res.hostSec = hostSec
		res.timedSpan = timedID
	}
}

// setup builds one fleet, plants the population and runs the warm-up.
func (p phase) setup() (*fleet.Fleet, *population, error) {
	setupID := p.rec.id()
	t0 := time.Now()
	f, err := fleet.New(p.spec.config(p.seed, p.shards))
	if err != nil {
		return nil, nil, err
	}
	p.rec.add(0, setupID, 0, "fleet.New", t0, time.Now())
	var sub submitter = f
	if p.rec != nil {
		sub = tracedSubmit{f: f, rec: p.rec, parent: setupID}
	}
	pop, err := p.spec.populate(f, sub, rand.New(rand.NewSource(p.seed)))
	if err != nil {
		return nil, nil, fmt.Errorf("%s population: %w", p.spec.name, err)
	}
	p.runFleet(f, p.spec.warmup, setupID)
	p.rec.add(setupID, 0, 0, "setup", t0, time.Now())
	return f, pop, nil
}

// runFleet advances the fleet by d. Traced, it calls Fleet.Run once per
// round so every round is a span; untraced, once for the whole span.
func (p phase) runFleet(f *fleet.Fleet, d time.Duration, parent uint64) {
	if p.rec == nil {
		f.Run(d)
		return
	}
	for done := time.Duration(0); done < d; {
		step := min(p.spec.round, d-done)
		t := time.Now()
		f.Run(step)
		p.rec.add(0, parent, 0, "fleet.Run", t, time.Now())
		done += step
	}
}

// submitter is the part of the fleet a population needs.
type submitter interface {
	Submit(fleet.WorkloadSpec) (fleet.Placement, error)
}

// tracedSubmit records a span around every Fleet.Submit.
type tracedSubmit struct {
	f      *fleet.Fleet
	rec    *recorder
	parent uint64
}

func (t tracedSubmit) Submit(s fleet.WorkloadSpec) (fleet.Placement, error) {
	t0 := time.Now()
	pl, err := t.f.Submit(s)
	t.rec.add(0, t.parent, 0, "fleet.Submit", t0, time.Now())
	return pl, err
}

// readDet reads the deterministic metrics with the fleet between rounds at
// the horizon: time to alert of every planted miner, the detector's cycle
// share, and the digest of the planted population's alert stream; and the
// live heap, which at a fixed simulated time does not depend on how fast
// the host ran.
func readDet(f *fleet.Fleet, pop *population, horizon time.Duration) detResult {
	det := detResult{planted: len(pop.miners)}
	alerts := f.AlertStream()
	first := map[int]time.Duration{}
	for _, a := range alerts {
		if a.Tenant == attacker {
			if _, seen := first[a.Machine]; !seen {
				first[a.Machine] = a.Time
			}
		}
	}
	for _, m := range pop.miners {
		if t, ok := first[m]; ok {
			det.ttaSec = append(det.ttaSec, t.Seconds())
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	det.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	var sampled, cycles uint64
	for _, mem := range f.Members() {
		sampled += mem.M.Kernel().SampleOverheadCycles()
		c := mem.M.CPU()
		for i := 0; i < c.Cores(); i++ {
			cycles += c.Core(i).Counters().Cycles()
		}
	}
	if cycles > 0 {
		det.overheadPct = 100 * float64(sampled) / float64(cycles)
	}
	det.digest = plantedDigest(alerts, horizon)
	return det
}

// plantedDigest hashes the planted population's alerts up to horizon:
// every alert not owned by an API tenant. Sequence numbers are left out,
// since API alerts interleave.
func plantedDigest(alerts []fleet.Alert, horizon time.Duration) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, a := range alerts {
		if isAPITenant(a.Tenant) || a.Time > horizon {
			continue
		}
		put(uint64(a.Machine))
		put(uint64(a.Time))
		put(uint64(a.Pid))
		put(uint64(a.Tgid))
		put(a.RSXInWin)
		put(math.Float64bits(a.RatePerMin))
		put(math.Float64bits(a.StaticRisk))
		h.Write([]byte(a.Tenant + "\x00" + a.Name + "\x00" + string(a.Scope) + "\x00"))
		if a.StaticPrior {
			h.Write([]byte{1})
		}
	}
	return h.Sum64()
}

// benignAlerts counts alerts owned by planted benign tenants.
func benignAlerts(f *fleet.Fleet) int {
	n := 0
	for _, a := range f.AlertStream() {
		if a.Tenant != attacker && !isAPITenant(a.Tenant) {
			n++
		}
	}
	return n
}
