package darkarts_test

// OBSERVABILITY.md is the contract for the operations surface: every
// metric a default system registers must be documented there by name, and
// every metric its catalog tables name must be registered. These tests
// build a real kernel plus an instrumented ML pipeline, and a small fleet
// with API traffic, collect the registered base names, and compare them
// with the doc.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"darkarts/internal/detect"
	"darkarts/internal/fleet"
	"darkarts/internal/machine"
	"darkarts/internal/miner"
	"darkarts/internal/obs"
)

func observabilityDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// machineMetricNames runs a default machine with a miner, attaches the
// detect-layer metrics the same registry would carry in an ML deployment,
// and returns the registered names.
func machineMetricNames(t *testing.T) []string {
	t.Helper()
	sys, err := machine.New(machine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	miner.SpawnMiner(sys.Kernel(), miner.Monero, 0, 2, 1000)
	sys.Run(2 * time.Second)

	x := [][]float64{{0, 0, 0}, {5, 5, 5}, {0.1, 0, 0.2}, {5, 4.8, 5.1}}
	y := []int{-1, 1, -1, 1}
	p := &detect.Pipeline{Components: 2, Model: &detect.SVM{}, Obs: sys.Obs()}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p.Predict(x[0])

	names := sys.Obs().Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	return names
}

// fleetMetricNames runs a small fleet, including API traffic so the lazily
// registered per-route counters exist, and returns the registered names.
func fleetMetricNames(t *testing.T) []string {
	t.Helper()
	cfg := fleet.DefaultConfig(4)
	cfg.Round = 250 * time.Millisecond
	cfg.Machine.Kernel.Tunables.Period = time.Second
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	for i := 0; i < cfg.Machines; i++ {
		spec, _ := json.Marshal(map[string]any{
			"tenant": "t", "kind": "miner", "machine": i, "pin": true,
		})
		resp, err := http.Post(srv.URL+"/api/v1/workloads", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	f.Run(2 * time.Second)
	for _, route := range []string{"/api/v1/fleet", "/api/v1/alerts", "/api/v1/machines", "/api/v1/stats"} {
		resp, err := http.Get(srv.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	names := f.Obs().Names()
	if len(names) == 0 {
		t.Fatal("fleet registry is empty")
	}
	return names
}

func requireDocumented(t *testing.T, text, scope string, names []string) {
	t.Helper()
	for _, name := range names {
		if !strings.Contains(text, "`"+name+"`") && !strings.Contains(text, "`"+name+"{") {
			t.Errorf("OBSERVABILITY.md does not document %smetric %q", scope, name)
		}
	}
}

func TestObservabilityDocCoversAllMetrics(t *testing.T) {
	text := observabilityDoc(t)
	requireDocumented(t, text, "", machineMetricNames(t))

	// The layer names the doc organizes by must match the code's.
	for _, layer := range []string{obs.LayerCPU, obs.LayerMem, obs.LayerKernel, obs.LayerDetect, obs.LayerFleet} {
		if !strings.Contains(text, "`"+layer+"`") {
			t.Errorf("OBSERVABILITY.md missing a section for layer %q", layer)
		}
	}
}

// TestObservabilityDocCoversFleetMetrics holds the same contract for the
// fleet-scope registry.
func TestObservabilityDocCoversFleetMetrics(t *testing.T) {
	requireDocumented(t, observabilityDoc(t), "fleet ", fleetMetricNames(t))
}

// TestObservabilityDocCatalogIsRegistered is the converse: every metric a
// row of the "Metric catalog" tables names must be registered by the
// machine or the fleet registry, so a metric deleted from the code cannot
// linger in the doc.
func TestObservabilityDocCatalogIsRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range append(machineMetricNames(t), fleetMetricNames(t)...) {
		registered[name] = true
	}
	text := observabilityDoc(t)
	start := strings.Index(text, "\n## Metric catalog\n")
	if start < 0 {
		t.Fatal(`OBSERVABILITY.md has no "## Metric catalog" section`)
	}
	catalog := text[start+1:]
	if end := strings.Index(catalog[1:], "\n## "); end >= 0 {
		catalog = catalog[:end+1]
	}
	rows := 0
	for _, line := range strings.Split(catalog, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		name := strings.TrimPrefix(line, "| `")
		name = name[:strings.IndexAny(name, "`{")]
		rows++
		if !registered[name] {
			t.Errorf("OBSERVABILITY.md catalogs metric %q, which no registry registers", name)
		}
	}
	if rows == 0 {
		t.Fatal("no catalog rows found")
	}
}
