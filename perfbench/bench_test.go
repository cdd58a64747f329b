package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"darkarts/internal/fleet"
)

// tinySize shrinks every workload so that a full run of all three, traced
// and untraced, takes seconds.
const tinySize = 1.0 / 16

// benchmarkFile is the part of BENCHMARK.json the test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsTiny runs every workload declared in BENCHMARK.json at tiny
// size, untraced and traced, and checks that the run passes its checks and
// reports exactly the declared metrics with the declared units.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{
			"0": units(decl.EndToEnd), "1": units(decl.PerLayer),
		} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--spans", t.TempDir() + "/spans.jsonl"}
				if code := run(args, tinySize, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// TestChecksFail breaks a tiny sparse run three ways: a planted miner
// that never alerted, a miner owned by a benign tenant, and a failed API
// request. Each must fail exactly one more check.
func TestChecksFail(t *testing.T) {
	sp := specs(tinySize)["sparse"]
	res, err := phase{spec: sp, seed: 7, shards: 1, setups: 1}.run()
	if err != nil {
		t.Fatal(err)
	}
	checks := func() []string {
		rep := newReport(&bytes.Buffer{})
		detectionChecks(rep, sp, res)
		return rep.checks
	}
	if c := checks(); len(c) != 0 {
		t.Fatalf("clean run fails checks: %q", c)
	}
	res.det.ttaSec = res.det.ttaSec[1:]
	if c := checks(); len(c) != 1 {
		t.Fatalf("undetected miner: checks %q", c)
	}
	if _, err := res.f.Submit(fleet.WorkloadSpec{Tenant: "tenant-x", Kind: fleet.KindMiner,
		Machine: res.pop.free[0], Pin: true}); err != nil {
		t.Fatal(err)
	}
	res.f.Run(2 * res.f.Config().Machine.Kernel.Tunables.Period)
	if c := checks(); len(c) != 2 {
		t.Fatalf("miner under a benign tenant: checks %q", c)
	}
	res.api = &apiResult{posts: 3, non2xx: 1}
	if c := checks(); len(c) != 3 {
		t.Fatalf("failed API request: checks %q", c)
	}
}
