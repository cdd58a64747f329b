package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
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

// apiErrorCases are the refused requests TestAPIErrors pins, including
// every route's 405; they also seed FuzzAPI. freqHz is the fleet
// machines' clock rate, the cap on a program's ips.
func apiErrorCases(freqHz uint64) []apiErrorCase {
	return []apiErrorCase{
		{http.MethodPost, "/api/v1/workloads", `{"tenant":"t","kind":"nope"}`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/workloads", `not json`, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/workloads", `{"kind":"app","app":"Slack"}`, http.StatusBadRequest}, // no tenant
		{http.MethodGet, "/api/v1/workloads", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/v1/fleet", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/v1/alerts", "", http.StatusMethodNotAllowed},
		{http.MethodPut, "/api/v1/machines", "", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/v1/stats", "", http.StatusMethodNotAllowed},
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

// TestAPISubmitBacklog: submissions made while a round runs queue for the
// next barrier, but at most maxPendingSubmissions of them. The next one is
// refused with 429 before any placement state changes, and the queue
// drains at the barrier, after which submissions are accepted again.
func TestAPISubmitBacklog(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	submit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/workloads",
			strings.NewReader(`{"tenant":"t","kind":"app","app":"Slack"}`)))
		return rec
	}
	var (
		once    sync.Once
		codes   []int
		refused *httptest.ResponseRecorder
	)
	f.hookRoundStart = func(int) {
		once.Do(func() {
			for range maxPendingSubmissions + 1 {
				rec := submit()
				codes = append(codes, rec.Code)
				refused = rec
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.placeID != maxPendingSubmissions || f.tenants["t"] != maxPendingSubmissions {
				t.Errorf("refused submission changed placement state: placeID %d, tenant count %d, want %d",
					f.placeID, f.tenants["t"], maxPendingSubmissions)
			}
		})
	}
	f.Run(testConfig(2).Round)
	if len(codes) != maxPendingSubmissions+1 {
		t.Fatalf("hook made %d submissions, want %d", len(codes), maxPendingSubmissions+1)
	}
	for i, code := range codes[:maxPendingSubmissions] {
		if code != http.StatusCreated {
			t.Fatalf("submission %d: status %d, want %d", i, code, http.StatusCreated)
		}
	}
	if refused.Code != http.StatusTooManyRequests {
		t.Fatalf("submission past the cap: status %d, want %d", refused.Code, http.StatusTooManyRequests)
	}
	var body apiError
	if err := json.NewDecoder(refused.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("429 error body = %+v, %v", body, err)
	}
	placed := 0
	for _, mem := range f.Members() {
		placed += mem.placed
	}
	if placed != maxPendingSubmissions {
		t.Errorf("members hold %d placements, want %d", placed, maxPendingSubmissions)
	}
	if rec := submit(); rec.Code != http.StatusCreated {
		t.Errorf("submission after the barrier drained the queue: status %d, want %d", rec.Code, http.StatusCreated)
	}
}

// apiRoutes are the fleet API's routes; FuzzAPI's route input indexes it.
var apiRoutes = []string{"fleet", "workloads", "alerts", "machines", "stats"}

// FuzzAPI drives every fleet API route with an arbitrary method, body and
// query parameters. Whatever the input, no handler may panic or answer
// 5xx, and every 4xx must carry a non-empty apiError body. POSTs to the
// workloads route go to a fresh two-machine fleet, so accepted workloads
// do not pile up across inputs; every other request goes to one fleet
// whose retained stream holds alerts and has trimmed older ones, so alert
// cursors land before, inside and past it.
//
// Every string input is cut to fuzzMaxString bytes, and the body sent is
// padKiB KiB of leading blanks followed by body, so an oversized
// submission is a one-byte input rather than a 64 KiB string. The fuzzer
// minimizes each input that finds new coverage, trying up to one
// candidate per pair of byte positions in every string, and counts none
// of those executions until it is done: long strings would keep both
// workers minimizing for most of a 20 s run.
func FuzzAPI(f *testing.F) {
	for _, c := range apiErrorCases(testConfig(2).Machine.CPU.FreqHz) {
		u, err := url.Parse(c.path)
		if err != nil {
			f.Fatal(err)
		}
		route := slices.Index(apiRoutes, strings.TrimPrefix(u.Path, "/api/v1/"))
		if route < 0 {
			f.Fatalf("%s is not a fleet API route", c.path)
		}
		body, padKiB := c.body, uint8(0)
		if len(body) > maxSubmitBytes {
			body, padKiB = `{"tenant":"t"}`, maxSubmitBytes>>10+1
		}
		q := u.Query()
		f.Add(c.method, uint8(route), body, padKiB, q.Get("since"), q.Get("limit"), "mallory")
	}
	workloads, alerts := uint8(slices.Index(apiRoutes, "workloads")), uint8(slices.Index(apiRoutes, "alerts"))
	f.Add(http.MethodPost, workloads, `{"tenant":"t","kind":"miner","threads":3,"throttle":0.5}`, uint8(0), "", "", "")
	f.Add(http.MethodPost, workloads, `{"tenant":"t","kind":"program","program":"xmr-isa","ips":1000000}`, uint8(0), "", "", "")
	f.Add(http.MethodPost, workloads, `{"tenant":"t","kind":"miner","machine":-1,"pin":true}`, uint8(0), "", "", "")
	f.Add(http.MethodPost, workloads, `{}`, uint8(0), "", "", "")
	f.Add(http.MethodGet, alerts, "", uint8(0), "0", "10", "mallory")
	f.Add(http.MethodGet, alerts, "", uint8(0), "1", "1", "t")
	f.Add(http.MethodGet, alerts, "", uint8(0), "18446744073709551615", "-1", "")
	f.Add(http.MethodGet, alerts, "", uint8(0), "9223372036854775808", "x", "acme")

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

	f.Fuzz(func(t *testing.T, method string, route uint8, body string, padKiB uint8, since, limit, tenant string) {
		method, body, since, limit, tenant = clip(method), clip(body), clip(since), clip(limit), clip(tenant)
		path := "/api/v1/" + apiRoutes[int(route)%len(apiRoutes)]
		q := url.Values{"since": {since}, "limit": {limit}, "tenant": {tenant}}
		pad := strings.Repeat(" ", int(padKiB)<<10)
		req, err := http.NewRequest(method, path+"?"+q.Encode(), strings.NewReader(pad+body))
		if err != nil {
			t.Skip("not an HTTP method token:", err)
		}
		h := queries
		if path == "/api/v1/workloads" && method == http.MethodPost {
			sub, err := New(testConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			h = sub.Handler()
		}
		requireAPIAnswer(t, h, req)
	})
}

// fuzzMaxString bounds each FuzzAPI string input: room for every seed
// and a realistic submission, small enough that minimizing one stays
// short.
const fuzzMaxString = 128

// clip cuts s to fuzzMaxString bytes.
func clip(s string) string {
	return s[:min(len(s), fuzzMaxString)]
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
