package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T, machines int) (*Fleet, *httptest.Server) {
	t.Helper()
	f, err := New(testConfig(machines))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestAPISubmitAndAlerts(t *testing.T) {
	f, srv := testServer(t, 4)

	// Submit a miner for tenant "mallory" and an app for "acme".
	var pl Placement
	body := `{"tenant":"mallory","kind":"miner","machine":2,"pin":true}`
	resp, err := http.Post(srv.URL+"/api/v1/workloads", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pl.Machine != 2 || len(pl.Tgids) == 0 || pl.Deferred {
		t.Fatalf("placement = %+v", pl)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/workloads",
		strings.NewReader(`{"kind":"app","app":"Slack"}`))
	req.Header.Set("X-Tenant", "acme") // tenant via header instead of body
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("header-tenant submit status = %d", resp2.StatusCode)
	}

	f.Run(5 * time.Second)

	// Fleet summary reflects the run.
	var sum fleetSummary
	getJSON(t, srv.URL+"/api/v1/fleet", &sum)
	if sum.Machines != 4 || sum.Tenants != 2 || sum.Rounds == 0 || sum.Alerts == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Catalog) == 0 {
		t.Error("summary catalog empty")
	}

	// The miner's alerts are scoped to its tenant.
	var page alertsPage
	getJSON(t, srv.URL+"/api/v1/alerts?tenant=mallory", &page)
	if len(page.Alerts) == 0 {
		t.Fatal("no alerts for mallory")
	}
	for _, a := range page.Alerts {
		if a.Tenant != "mallory" || a.Machine != 2 {
			t.Fatalf("mis-scoped alert %+v", a)
		}
	}
	var acme alertsPage
	getJSON(t, srv.URL+"/api/v1/alerts?tenant=acme", &acme)
	if len(acme.Alerts) != 0 {
		t.Fatalf("benign tenant saw %d alerts", len(acme.Alerts))
	}

	// Cursor paging: from page.Next the stream is drained.
	var tip alertsPage
	getJSON(t, srv.URL+"/api/v1/alerts?since="+jsonUint(page.Next), &tip)
	if len(tip.Alerts) != 0 || tip.Trimmed != 0 {
		t.Fatalf("tip page = %+v", tip)
	}
	// Cursors far past the end, including ones 2^63+ past the base, read
	// an empty page and echo the cursor back.
	for _, since := range []uint64{math.MaxUint64, 1 << 63} {
		var far alertsPage
		if resp := getJSON(t, srv.URL+"/api/v1/alerts?since="+jsonUint(since), &far); resp.StatusCode != http.StatusOK {
			t.Fatalf("since=%d: status = %d", since, resp.StatusCode)
		}
		if len(far.Alerts) != 0 || far.Trimmed != 0 || far.Next != since {
			t.Fatalf("since=%d page = %+v", since, far)
		}
	}

	// Machines listing covers every member.
	var machines []machineSummary
	getJSON(t, srv.URL+"/api/v1/machines", &machines)
	if len(machines) != 4 {
		t.Fatalf("machines = %d", len(machines))
	}
	if machines[2].Tasks == 0 || machines[2].Placed == 0 {
		t.Fatalf("machine 2 summary = %+v", machines[2])
	}

	// Stats snapshot carries fleet metrics.
	var stats []map[string]any
	getJSON(t, srv.URL+"/api/v1/stats", &stats)
	found := false
	for _, m := range stats {
		if m["name"] == "fleet_alerts_total" {
			found = true
		}
	}
	if !found {
		t.Error("stats snapshot missing fleet_alerts_total")
	}
}

// apiErrorCase is one request the API must refuse with status and an
// apiError body.
type apiErrorCase struct {
	method, path, body string
	status             int
}

// apiErrorCases are the refused requests TestAPIErrors pins; their submit
// bodies also seed FuzzAPI. freqHz is the fleet machines' clock rate, the
// cap on a program's ips.
func apiErrorCases(freqHz uint64) []apiErrorCase {
	return []apiErrorCase{
		{http.MethodPost, "/api/v1/workloads", `{"tenant":"t","kind":"nope"}`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/workloads", `not json`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/workloads", `{"kind":"app","app":"Slack"}`, http.StatusBadRequest}, // no tenant
		{http.MethodGet, "/api/v1/workloads", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/v1/fleet", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/v1/alerts?since=abc", "", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/alerts?limit=x", "", http.StatusBadRequest},
		{http.MethodPost, "/api/v1/workloads", `{"tenant":"` + strings.Repeat("t", maxSubmitBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/api/v1/workloads", fmt.Sprintf(`{"tenant":"t","kind":"miner","threads":%d}`, maxMinerThreads+1), http.StatusBadRequest},
		{http.MethodPost, "/api/v1/workloads", fmt.Sprintf(`{"tenant":"t","kind":"program","program":"sha256","ips":%d}`, freqHz+1), http.StatusBadRequest},
	}
}

func TestAPIErrors(t *testing.T) {
	f, srv := testServer(t, 2)
	cases := apiErrorCases(f.cfg.Machine.CPU.FreqHz)
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body apiError
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status = %d, want %d", c.method, c.path, resp.StatusCode, c.status)
		}
		if err != nil || body.Error == "" {
			t.Errorf("%s %s: error body = %+v, %v", c.method, c.path, body, err)
		}
	}
	if n, _ := f.Obs().Value("fleet_api_errors_total", ""); n != float64(len(cases)) {
		t.Errorf("fleet_api_errors_total = %v, want %d", n, len(cases))
	}
}

// FuzzAPI drives the fleet API with arbitrary submit bodies and alert-query
// parameters. Whatever the input, no handler may panic or answer 5xx, and
// every 4xx must carry a non-empty apiError body. Each submission goes to
// a fresh two-machine fleet, so accepted workloads do not pile up across
// inputs; queries go to one fleet whose retained stream holds alerts and
// has trimmed older ones, so cursors land before, inside and past it.
func FuzzAPI(f *testing.F) {
	for _, c := range apiErrorCases(testConfig(2).Machine.CPU.FreqHz) {
		if c.path == "/api/v1/workloads" && c.method == http.MethodPost {
			f.Add(c.body, "0", "10", "mallory")
		}
	}
	f.Add(`{"tenant":"t","kind":"miner","threads":3,"throttle":0.5}`, "1", "1", "t")
	f.Add(`{"tenant":"t","kind":"program","program":"xmr-isa","ips":1000000}`, "", "", "")
	f.Add(`{"tenant":"t","kind":"miner","machine":-1,"pin":true}`, "18446744073709551615", "-1", "")
	f.Add(`{}`, "9223372036854775808", "x", "acme")

	cfg := testConfig(2)
	cfg.AlertRetention = 2
	stream, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := stream.Submit(WorkloadSpec{Tenant: "mallory", Kind: KindMiner, Machine: 1, Pin: true}); err != nil {
		f.Fatal(err)
	}
	stream.Run(10 * time.Second)
	if len(stream.AlertStream()) == 0 {
		f.Fatal("query fleet raised no alerts")
	}
	queries := stream.Handler()

	f.Fuzz(func(t *testing.T, body, since, limit, tenant string) {
		sub, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		requireAPIAnswer(t, sub.Handler(), httptest.NewRequest(http.MethodPost, "/api/v1/workloads", strings.NewReader(body)))
		q := url.Values{"since": {since}, "limit": {limit}, "tenant": {tenant}}
		requireAPIAnswer(t, queries, httptest.NewRequest(http.MethodGet, "/api/v1/alerts?"+q.Encode(), nil))
	})
}

// requireAPIAnswer serves req and fails t on a 5xx or on a 4xx whose body
// is not a non-empty apiError.
func requireAPIAnswer(t *testing.T, h http.Handler, req *http.Request) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body)
	}
	if rec.Code >= 400 {
		var body apiError
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Error == "" {
			t.Fatalf("%s %s: status %d with error body %+v, %v", req.Method, req.URL, rec.Code, body, err)
		}
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
