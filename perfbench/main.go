// Command perfbench is the repository's benchmark. It runs one fleet
// workload (mixed, isa or sparse; see BENCHMARK.md beside this file),
// checks the simulation's outputs, and prints the workload's metrics as
// the last line of standard output:
//
//	{"correct":true,"attempted":..,"failed":..,"metrics":{"hosts_per_s":{"value":..,"unit":"host-s/s"},..}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run instead times calls into each module's public functions, keeps the
// spans in memory, writes them to --spans at exit, and reports per-layer
// metrics. The exit code is non-zero when a check fails.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, failed checks and diagnostics.
type report struct {
	res    result
	checks []string // failed checks, one line each
	out    io.Writer
}

func newReport(out io.Writer) *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}, out: out}
}

func (r *report) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// note prints a diagnostic line that is not a reported metric.
func (r *report) note(format string, args ...any) { fmt.Fprintf(r.out, "# "+format+"\n", args...) }

// check records a correctness check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.Correct = false
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], 1, os.Stdout, os.Stderr))
}

// run runs the benchmark with workloads scaled by size (1 is full size;
// the benchmark's own tests run smaller) and returns the exit code.
func run(args []string, size float64, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mixed, isa or sparse")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "wall-clock seconds of the timed phase")
	trace := fs.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	spansPath := fs.String("spans", "", "span output of a traced run (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs(size)[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload mixed|isa|sparse, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *spansPath == "" {
		*spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	rep := newReport(stdout)
	ref0 := hostSpeed()
	var err error
	if *trace == 1 {
		err = tracedRun(rep, sp, *seed, time.Duration(*seconds)*time.Second, *spansPath)
	} else {
		err = endToEnd(rep, sp, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.note("host_speed_ref_mb_per_s before=%.1f after=%.1f (sha256, diagnostic only)", ref0, hostSpeed())
	for _, c := range rep.checks {
		fmt.Fprintln(stderr, "perfbench: check failed:", c)
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.res.Correct {
		return 1
	}
	return 0
}

// endToEnd is the untraced run with GOMAXPROCS workers: three fleets, each
// set up and then timed for a third of the timed phase.
func endToEnd(rep *report, sp spec, seed int64, seconds time.Duration) error {
	p := phase{spec: sp, seed: seed, setups: 3, minWall: seconds}
	if sp.api {
		p.minWall, p.apiWall = seconds/2, seconds/2
	}
	res, err := p.run()
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", median(seconds64(res.setupTimes)))
	rep.set("hosts_per_s", "host-s/s", median(res.chunkRates))
	rep.set("heap_live_mb", "MB", res.det.heapMB)
	addDetection(rep, sp, res)
	rep.note("%s: %d machines, %d workers, %d timed chunks in %.2fs wall; chunk host-s/s q1=%.4g q3=%.4g",
		sp.name, sp.machines, res.f.Config().Shards, len(res.chunkRates), res.wall.Seconds(),
		quantile(res.chunkRates, 0.25), quantile(res.chunkRates, 0.75))
	rep.note("setup_s samples %v", res.setupTimes)
	return nil
}

// addDetection reports the deterministic detection metrics and the checks
// common to every run of the workload.
func addDetection(rep *report, sp spec, res *phaseResult) {
	det := res.det
	rep.set("time_to_alert_p50_sim_s", "sim_s", quantile(det.ttaSec, 0.5))
	rep.set("time_to_alert_max_sim_s", "sim_s", quantile(det.ttaSec, 1))
	rep.set("miners_detected_frac", "frac", float64(len(det.ttaSec))/float64(max(det.planted, 1)))
	rep.set("detect_overhead_pct", "%", det.overheadPct)
	detectionChecks(rep, sp, res)
}

// addAPI reports the API client's numbers as diagnostics with their
// sample counts, and checks that no request failed.
func addAPI(rep *report, a *apiResult) {
	pct := func(name string, xs []float64, q float64) {
		rep.note("%s %.4f ms (n=%d)", name, quantile(xs, q), len(xs))
	}
	pct("submit_to_alert_p50_ms", a.submitAlertMs, 0.5)
	pct("submit_to_alert_p90_ms", a.submitAlertMs, 0.9)
	pct("post_p50_ms", a.postMs, 0.5)
	pct("poll_p50_ms", a.pollMs, 0.5)
	pct("poll_p99_ms", a.pollMs, 0.99)
	frac := float64(a.failed()) / float64(max(a.attempted(), 1))
	rep.note("api_failed_frac %.6f frac (%d of %d; generator ran up to %.3f ms late)",
		frac, a.failed(), a.attempted(), a.maxLateMs)
	rep.check(a.failed() == 0, "%d of %d API requests failed or never alerted", a.failed(), a.attempted())
	rep.res.Attempted += a.attempted()
	rep.res.Failed += a.failed()
}

// hostSpeed times a fixed standard-library loop (SHA-256 over 64 MiB) and
// returns MB/s: a reference for how fast the host ran, printed beside each
// run and never reported as a metric.
func hostSpeed() float64 {
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	return 64 / time.Since(t0).Seconds()
}

func seconds64(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
