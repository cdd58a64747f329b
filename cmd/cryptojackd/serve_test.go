package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darkarts/internal/machine"
	"darkarts/internal/miner"
)

func testSystem(t *testing.T) *machine.Machine {
	t.Helper()
	opts := machine.DefaultOptions()
	opts.Kernel.Tunables.Period = 20 * time.Second
	sys, err := machine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	miner.SpawnMiner(sys.Kernel(), miner.Monero, 0, 4, 1000)
	sys.Run(time.Minute)
	return sys
}

func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	sys := testSystem(t)
	srv := httptest.NewServer(newMux(sys))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != prometheusContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# HELP darkarts_sched_quanta_total",
		"# TYPE darkarts_sched_quanta_total counter",
		"# TYPE darkarts_rsx_delta_per_switch histogram",
		`darkarts_tlb_hits_total{core="0"}`,
		"darkarts_alert_latency_ns_bucket{le=\"+Inf\"}",
		"darkarts_alert_latency_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStatsEndpointMatchesProcFS(t *testing.T) {
	sys := testSystem(t)
	srv := httptest.NewServer(newMux(sys))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Same registry, same renderer: the HTTP view must equal the procfs
	// file (the simulation is stopped, so no metric moves between reads).
	procView, err := sys.ProcFS().Read("proc/cryptojack/stats")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != procView {
		t.Error("/stats and proc/cryptojack/stats render differently")
	}
}

func TestRunWithHTTPAndMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.json")
	err := run([]string{"-duration", "60s", "-period", "20s", "-http", "127.0.0.1:0", "-metrics-json", path})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf, &records); err != nil {
		t.Fatalf("snapshot is not benchjson-schema JSON: %v", err)
	}
	layers := map[string]bool{}
	for _, r := range records {
		layers[r.Name] = true
	}
	for _, want := range []string{"Obs/kernel", "Obs/cpu", "Obs/mem"} {
		if !layers[want] {
			t.Errorf("snapshot missing record %s (have %v)", want, layers)
		}
	}
}

func TestRunObsDisabled(t *testing.T) {
	if err := run([]string{"-obs=false", "-duration", "60s", "-period", "20s"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-obs=false", "-http", ":0", "-duration", "1s"}); err == nil {
		t.Error("-http with -obs=false accepted")
	}
	if err := run([]string{"-obs=false", "-metrics-json", "x.json", "-duration", "1s"}); err == nil {
		t.Error("-metrics-json with -obs=false accepted")
	}
}
