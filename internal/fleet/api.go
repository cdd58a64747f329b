package fleet

// Multi-tenant HTTP/JSON control surface. The API layers on cryptojackd's
// existing /metrics (Prometheus text) and /stats (procfs view) endpoints:
// those render the registry, this mutates and queries the fleet itself —
// submit a workload, read its placement, page the alert stream. Handlers
// take only f.mu and the registry's locks, so they are safe to hit while
// the fleet runs rounds.
//
// Tenancy: submissions carry their tenant in the request body; alert
// reads scope to one tenant with ?tenant= (or the X-Tenant header).
// Alerts raised by a tenant's thread groups carry that tenant in the
// stream, so ?tenant= gives each customer a filtered view of one shared
// fleet.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// maxSubmitBytes caps a POST /api/v1/workloads body. A WorkloadSpec names
// catalog entries rather than carrying code, so real submissions are a few
// hundred bytes; anything past the cap is refused with 413.
const maxSubmitBytes = 64 << 10

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// fleetSummary is the GET /api/v1/fleet response.
type fleetSummary struct {
	Machines   int      `json:"machines"`
	Shards     int      `json:"shards"`
	RoundMs    int64    `json:"round_ms"`
	SimTimeMs  int64    `json:"sim_time_ms"`
	Rounds     uint64   `json:"rounds"`
	Alerts     uint64   `json:"alerts"`
	NextSeq    uint64   `json:"next_seq"`
	Tenants    int      `json:"tenants"`
	Placements int      `json:"placements"`
	Catalog    []string `json:"catalog"`
}

// machineSummary is one GET /api/v1/machines entry.
type machineSummary struct {
	ID        int   `json:"id"`
	Placed    int   `json:"placed"`
	Tasks     int   `json:"tasks"`
	SimTimeMs int64 `json:"sim_time_ms"`
}

// alertsPage is the GET /api/v1/alerts response: alerts plus the cursor
// to pass as the next ?since, and how many matching alerts were already
// trimmed from the retention window (0 = lossless read).
type alertsPage struct {
	Alerts  []Alert `json:"alerts"`
	Next    uint64  `json:"next"`
	Trimmed uint64  `json:"trimmed"`
}

// Handler returns the fleet API. Mount it at the server root: routes are
// absolute (/api/v1/...).
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/fleet", f.instrument("fleet", f.handleFleet))
	mux.HandleFunc("/api/v1/workloads", f.instrument("workloads", f.handleWorkloads))
	mux.HandleFunc("/api/v1/alerts", f.instrument("alerts", f.handleAlerts))
	mux.HandleFunc("/api/v1/machines", f.instrument("machines", f.handleMachines))
	mux.HandleFunc("/api/v1/stats", f.instrument("stats", f.handleStats))
	return mux
}

// statusWriter records the status code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route request counting, latency
// observation, and 4xx/5xx accounting.
func (f *Fleet) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ctr := f.om.apiCounter(route)
	return func(w http.ResponseWriter, r *http.Request) {
		//lint:ignore determinism request wall-clock timing feeds the API latency histogram only, never simulation state
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		ctr.Inc()
		if f.om != nil {
			f.om.apiNs.Observe(uint64(time.Since(t0)))
			if sw.status >= 400 {
				f.om.apiErrors.Inc()
			}
		}
	}
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleFleet serves the fleet summary.
func (f *Fleet) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "GET only"})
		return
	}
	f.mu.Lock()
	s := fleetSummary{
		Machines:   len(f.members),
		Shards:     f.cfg.Shards,
		RoundMs:    f.cfg.Round.Milliseconds(),
		SimTimeMs:  f.simTime.Milliseconds(),
		Rounds:     f.rounds,
		Alerts:     f.nextSeq,
		NextSeq:    f.nextSeq,
		Tenants:    len(f.tenants),
		Placements: f.placeID,
	}
	f.mu.Unlock()
	s.Catalog = f.Catalog()
	writeJSON(w, http.StatusOK, s)
}

// handleWorkloads accepts a submission (POST, WorkloadSpec body) and
// answers with its Placement.
func (f *Fleet) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST only"})
		return
	}
	var spec WorkloadSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, apiError{Error: "bad body: " + err.Error()})
		return
	}
	if spec.Tenant == "" {
		spec.Tenant = r.Header.Get("X-Tenant")
	}
	pl, err := f.Submit(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrSubmitBacklog) {
			status = http.StatusTooManyRequests
		}
		writeJSON(w, status, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, pl)
}

// handleAlerts pages the alert stream: ?since=<seq> cursor, ?limit=<n>,
// and tenant scoping via ?tenant= or the X-Tenant header.
func (f *Fleet) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "GET only"})
		return
	}
	q := r.URL.Query()
	var since uint64
	if s := q.Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad since: " + err.Error()})
			return
		}
		since = v
	}
	limit := 0
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad limit: " + err.Error()})
			return
		}
		limit = v
	}
	tenant := q.Get("tenant")
	if tenant == "" {
		tenant = r.Header.Get("X-Tenant")
	}
	alerts, next, trimmed := f.AlertsSince(since, tenant, limit)
	if alerts == nil {
		alerts = []Alert{}
	}
	writeJSON(w, http.StatusOK, alertsPage{Alerts: alerts, Next: next, Trimmed: trimmed})
}

// handleMachines lists the fleet's members.
func (f *Fleet) handleMachines(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "GET only"})
		return
	}
	f.mu.Lock()
	out := make([]machineSummary, 0, len(f.members))
	for _, mem := range f.members {
		out = append(out, machineSummary{
			ID:        mem.ID,
			Placed:    mem.placed,
			Tasks:     len(mem.M.Kernel().Tasks()),
			SimTimeMs: mem.M.Now().Milliseconds(),
		})
	}
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleStats serves the fleet registry snapshot as JSON (the machine-
// readable sibling of cryptojackd's /metrics text exposition).
func (f *Fleet) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, f.cfg.Obs.Snapshot())
}
