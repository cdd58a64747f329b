package fleet

import (
	"strconv"

	"darkarts/internal/cpu"
	"darkarts/internal/obs"
)

// Histogram bucket bounds: round wall times span sub-millisecond (idle
// fleets) to seconds (thousand-machine rounds); API latencies span
// microseconds to tens of milliseconds. Never mutated after init.
var (
	fleetNsBuckets  = []uint64{100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000}
	apiNsBuckets    = []uint64{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	alertLagBuckets = []uint64{10, 100, 250, 500, 1_000, 5_000, 60_000}
)

// fmetrics holds the fleet's pre-resolved observability handles. Handles
// are registered once at fleet construction; when Config.Obs is nil the
// fleet's om field is nil and every instrumentation site is one branch
// (the same contract as the kernel's kmetrics).
type fmetrics struct {
	reg *obs.Registry

	workers    *obs.Gauge
	rounds     *obs.Counter
	machineMs  *obs.Counter
	roundNs    *obs.Histogram
	workerBusy []*obs.Counter
	workerIdle []*obs.Counter
	ffRounds   *obs.Counter
	advances   *obs.Counter

	alerts       *obs.Counter
	alertBatches *obs.Counter
	alertsDrop   *obs.Counter
	alertLagMs   *obs.Histogram
	submissions  *obs.Counter
	tenants      *obs.Gauge
	tasksPlaced  *obs.Counter

	sharedHits  *obs.Counter
	sharedMiss  *obs.Counter
	sharedPub   *obs.Counter
	sharedEvict *obs.Counter
	sharedLast  cpu.SharedBlocksStats

	gsaAnalyzed *obs.Counter
	gsaFlagged  *obs.Counter
	gsaRejected *obs.Counter

	apiErrors *obs.Counter
	apiNs     *obs.Histogram
}

func newFMetrics(reg *obs.Registry, shards int) *fmetrics {
	m := &fmetrics{
		reg: reg,
		workers: reg.Gauge(obs.Desc{Name: "fleet_workers", Layer: obs.LayerFleet,
			Unit: "workers", Help: "round workers claiming due machines off the shared cursor"}),
		ffRounds: reg.Counter(obs.Desc{Name: "fleet_fastforward_rounds_total", Layer: obs.LayerFleet,
			Unit: "machine-rounds", Help: "machine-rounds advanced analytically by quiescent fast-forward instead of instruction dispatch"}),
		advances: reg.Counter(obs.Desc{Name: "fleet_machine_advances_total", Layer: obs.LayerFleet,
			Unit: "calls", Help: "machine advance calls (fast-forward or per-quantum run); machine-rounds minus these were skipped as having no event"}),
		rounds: reg.Counter(obs.Desc{Name: "fleet_rounds_total", Layer: obs.LayerFleet,
			Unit: "rounds", Help: "fleet rounds completed (one Round of simulated time on the fleet clock)"}),
		machineMs: reg.Counter(obs.Desc{Name: "fleet_machine_ms_total", Layer: obs.LayerFleet,
			Unit: "ms", Help: "simulated machine-milliseconds advanced (machines x rounds x round length)"}),
		roundNs: reg.Histogram(obs.Desc{Name: "fleet_round_ns", Layer: obs.LayerFleet,
			Unit: "ns", Help: "host wall time per fleet round (all shards, barrier to barrier)"}, fleetNsBuckets),
		alerts: reg.Counter(obs.Desc{Name: "fleet_alerts_total", Layer: obs.LayerFleet,
			Unit: "alerts", Help: "alerts appended to the fleet alert stream"}),
		alertBatches: reg.Counter(obs.Desc{Name: "fleet_alert_batches_total", Layer: obs.LayerFleet,
			Unit: "batches", Help: "non-empty per-machine alert batches flushed at round barriers"}),
		alertsDrop: reg.Counter(obs.Desc{Name: "fleet_alerts_dropped_total", Layer: obs.LayerFleet,
			Unit: "alerts", Help: "alerts trimmed from the retention window before any reader consumed them"}),
		alertLagMs: reg.Histogram(obs.Desc{Name: "fleet_alert_latency_ms", Layer: obs.LayerFleet,
			Unit: "ms", Help: "simulated time from an alert firing on its machine to its flush into the fleet stream (bounded by Round)"}, alertLagBuckets),
		submissions: reg.Counter(obs.Desc{Name: "fleet_submissions_total", Layer: obs.LayerFleet,
			Unit: "workloads", Help: "workload submissions placed onto machines"}),
		tenants: reg.Gauge(obs.Desc{Name: "fleet_tenants", Layer: obs.LayerFleet,
			Unit: "tenants", Help: "distinct tenants with at least one placed workload"}),
		tasksPlaced: reg.Counter(obs.Desc{Name: "fleet_tasks_placed_total", Layer: obs.LayerFleet,
			Unit: "tasks", Help: "kernel tasks created by fleet workload placement (threads included)"}),
		sharedHits: reg.Counter(obs.Desc{Name: "fleet_bbcache_shared_hits_total", Layer: obs.LayerFleet,
			Unit: "attaches", Help: "core attaches to a program's block table that found it already in the fleet's block store"}),
		sharedMiss: reg.Counter(obs.Desc{Name: "fleet_bbcache_shared_misses_total", Layer: obs.LayerFleet,
			Unit: "tables", Help: "block tables created in the fleet's block store, one per program and tag-table generation"}),
		sharedPub: reg.Counter(obs.Desc{Name: "fleet_bbcache_shared_published_total", Layer: obs.LayerFleet,
			Unit: "blocks", Help: "blocks decoded into the fleet's block store"}),
		sharedEvict: reg.Counter(obs.Desc{Name: "fleet_bbcache_shared_evictions_total", Layer: obs.LayerFleet,
			Unit: "evictions", Help: "whole block-store drops at the capacity bound"}),
		gsaAnalyzed: reg.Counter(obs.Desc{Name: "gsa_analyzed_total", Layer: obs.LayerFleet,
			Unit: "programs", Help: "program submissions screened by guest static analysis at admission"}),
		gsaFlagged: reg.Counter(obs.Desc{Name: "gsa_flagged_total", Layer: obs.LayerFleet,
			Unit: "programs", Help: "screened submissions whose static risk crossed the flag threshold"}),
		gsaRejected: reg.Counter(obs.Desc{Name: "gsa_rejected_total", Layer: obs.LayerFleet,
			Unit: "programs", Help: "flagged submissions refused under the reject admission policy"}),
		apiErrors: reg.Counter(obs.Desc{Name: "fleet_api_errors_total", Layer: obs.LayerFleet,
			Unit: "requests", Help: "fleet API requests answered with a 4xx/5xx status"}),
		apiNs: reg.Histogram(obs.Desc{Name: "fleet_api_request_ns", Layer: obs.LayerFleet,
			Unit: "ns", Help: "fleet API request handling latency"}, apiNsBuckets),
	}
	for s := 0; s < shards; s++ {
		label := obs.Label("worker", strconv.Itoa(s))
		m.workerBusy = append(m.workerBusy, reg.Counter(obs.Desc{
			Name: "fleet_worker_busy_ns_total", Label: label, Layer: obs.LayerFleet,
			Unit: "ns", Help: "host time the worker spent advancing the machines it claimed"}))
		m.workerIdle = append(m.workerIdle, reg.Counter(obs.Desc{
			Name: "fleet_worker_idle_ns_total", Label: label, Layer: obs.LayerFleet,
			Unit: "ns", Help: "host time the worker waited at round barriers (round wall minus busy)"}))
	}
	return m
}

// apiCounter returns the request counter for an API route. Registration is
// get-or-create under the registry's own lock, so handlers may call this
// concurrently; the API path is not hot.
func (m *fmetrics) apiCounter(route string) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter(obs.Desc{Name: "fleet_api_requests_total",
		Label: obs.Label("route", route), Layer: obs.LayerFleet,
		Unit: "requests", Help: "fleet API requests served, by route"})
}

// observeShared folds the fleet block store's counter deltas since the
// last barrier into the fleet registry.
func (m *fmetrics) observeShared(s cpu.SharedBlocksStats) {
	m.sharedHits.Add(s.Hits - m.sharedLast.Hits)
	m.sharedMiss.Add(s.Misses - m.sharedLast.Misses)
	m.sharedPub.Add(s.Published - m.sharedLast.Published)
	m.sharedEvict.Add(s.Evictions - m.sharedLast.Evictions)
	m.sharedLast = s
}
