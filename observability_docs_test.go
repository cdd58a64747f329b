package darkarts_test

// OBSERVABILITY.md is the contract for the operations surface: every
// metric a default system registers must be documented there by name.
// This test builds a real kernel plus an instrumented ML pipeline,
// collects the registered base names, and greps the doc.

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

func TestObservabilityDocCoversAllMetrics(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	sys, err := machine.New(machine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	miner.SpawnMiner(sys.Kernel(), miner.Monero, 0, 2, 1000)
	sys.Run(2 * time.Second)

	// Attach the detect-layer metrics the same registry would carry in an
	// ML deployment.
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
	for _, name := range names {
		if !strings.Contains(text, "`"+name+"`") && !strings.Contains(text, "`"+name+"{") {
			t.Errorf("OBSERVABILITY.md does not document metric %q", name)
		}
	}

	// The layer names the doc organizes by must match the code's.
	for _, layer := range []string{obs.LayerCPU, obs.LayerMem, obs.LayerKernel, obs.LayerDetect, obs.LayerFleet} {
		if !strings.Contains(text, "`"+layer+"`") {
			t.Errorf("OBSERVABILITY.md missing a section for layer %q", layer)
		}
	}
}

// TestObservabilityDocCoversFleetMetrics holds the same contract for the
// fleet-scope registry: run a small fleet (including API traffic so the
// lazily registered per-route counters exist) and grep the doc for every
// name it registers.
func TestObservabilityDocCoversFleetMetrics(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

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
	for _, name := range names {
		if !strings.Contains(text, "`"+name+"`") && !strings.Contains(text, "`"+name+"{") {
			t.Errorf("OBSERVABILITY.md does not document fleet metric %q", name)
		}
	}
}
