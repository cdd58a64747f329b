package main

// Fleet mode: -fleet N swaps the single machine.Machine for an
// internal/fleet service running N machines in one process, and layers
// the multi-tenant workload/alert API on the existing /metrics surface.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"darkarts/internal/fleet"
	"darkarts/internal/workload"
)

// fleetFlags carries the fleet-mode slice of cryptojackd's flag set.
type fleetFlags struct {
	machines   int
	shards     int
	round      time.Duration
	minerEvery int

	coin        string
	threads     int
	throttle    float64
	clean       bool
	dur         time.Duration
	tags        string
	threshold   uint64
	period      time.Duration
	obsOn       bool
	httpAddr    string
	metricsJSON string
}

// newFleetMux serves the fleet API plus the /metrics Prometheus surface
// from one mux.
func newFleetMux(f *fleet.Fleet) *http.ServeMux {
	mux := http.NewServeMux()
	if reg := f.Obs(); reg != nil {
		mux.HandleFunc("/metrics", metricsHandler(reg))
	}
	mux.Handle("/api/v1/", f.Handler())
	return mux
}

// serveFleet binds addr and serves the fleet mux in the background.
func serveFleet(addr string, f *fleet.Fleet) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet listener: %w", err)
	}
	srv := &http.Server{Handler: newFleetMux(f)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// runFleet is the -fleet N entry point: build the fleet, place resident
// benign workloads on every machine plus miners on every -miner-every'th
// machine, serve the API, run, and summarize.
func runFleet(ff fleetFlags) error {
	cfg := fleet.DefaultConfig(ff.machines)
	cfg.Shards = ff.shards
	if ff.round > 0 {
		cfg.Round = ff.round
	}
	cfg.Machine.TagSet = ff.tags
	cfg.Machine.Kernel.Tunables.Period = ff.period
	if ff.threshold > 0 {
		cfg.Machine.Kernel.Tunables.ThresholdPerMin = ff.threshold
	}
	if !ff.obsOn {
		cfg.Obs = nil
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	if ff.httpAddr != "" {
		srv, addr, err := serveFleet(ff.httpAddr, f)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("fleet API: http://%s/api/v1/fleet (also /workloads /alerts /machines /stats), /metrics (Prometheus)\n", addr)
	}

	eff := f.Config()
	fmt.Printf("fleet: %d machines across %d shards, %s rounds\n",
		eff.Machines, eff.Shards, eff.Round)

	apps := workload.TableIIApps()[:3]
	infected := 0
	for i := 0; i < ff.machines; i++ {
		for _, app := range apps {
			if _, err := f.Submit(fleet.WorkloadSpec{
				Tenant: "resident", Kind: fleet.KindApp, App: app.Name,
				Machine: i, Pin: true,
			}); err != nil {
				return err
			}
		}
		if !ff.clean && ff.minerEvery > 0 && i%ff.minerEvery == 0 {
			if _, err := f.Submit(fleet.WorkloadSpec{
				Tenant: "attacker", Kind: fleet.KindMiner, Coin: ff.coin,
				Throttle: ff.throttle, Threads: ff.threads,
				Machine: i, Pin: true,
			}); err != nil {
				return err
			}
			infected++
		}
	}
	fmt.Printf("placed %d benign apps per machine; %d machines infected with a %s miner\n",
		len(apps), infected, ff.coin)

	fmt.Printf("running %s of simulated time...\n", ff.dur)
	f.Run(ff.dur)

	alerts, _, _ := f.AlertsSince(0, "", 1<<30)
	byMachine := map[int]bool{}
	for _, a := range alerts {
		byMachine[a.Machine] = true
	}
	fmt.Printf("done: %d alert(s) from %d machine(s)\n", len(alerts), len(byMachine))
	for i, a := range alerts {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", len(alerts)-5)
			break
		}
		fmt.Printf("  seq %d machine %d tenant %q: %s\n", a.Seq, a.Machine, a.Tenant, a.Alert)
	}
	if ff.metricsJSON != "" {
		buf, err := f.Obs().BenchJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(ff.metricsJSON, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", ff.metricsJSON)
	}
	if ff.clean && len(alerts) > 0 {
		return fmt.Errorf("false positives on a clean fleet")
	}
	return nil
}
