package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"darkarts/internal/fleet"
)

// Open-loop API client schedule: one submission every postEvery, and one
// alert poll every pollEvery for each submission that has not alerted yet.
const (
	postEvery = 50 * time.Millisecond
	pollEvery = 5 * time.Millisecond
)

// apiClient is a single goroutine driving the fleet's HTTP handler
// in-process (no sockets) while the fleet runs. Every request is timed
// from when it was due, so a stalled request also delays the ones queued
// behind it.
type apiClient struct {
	h        http.Handler
	free     []int
	rec      *recorder
	stopPost chan struct{} // closed by stop: submit no more
	drained  chan struct{} // closed by the client once every submission alerted
	quit     chan struct{} // closed by stop: exit now
	done     chan struct{} // closed by the client on exit
	res      apiResult     // owned by the client goroutine until done
}

// apiResult is what the client measured.
type apiResult struct {
	posts, gets   int
	non2xx        int
	neverAlerted  int
	postMs        []float64
	pollMs        []float64
	submitAlertMs []float64
	maxLateMs     float64 // how late the generator started a request, worst case
}

func (r *apiResult) attempted() int { return r.posts + r.gets }
func (r *apiResult) failed() int    { return r.non2xx + r.neverAlerted }

// outstanding is one submission whose alert has not been seen yet.
type outstanding struct {
	req      uint64
	tenant   string
	due      time.Time // when its POST was due
	nextPoll time.Time
	since    uint64
}

func startAPIClient(f *fleet.Fleet, free []int, rec *recorder) *apiClient {
	c := &apiClient{h: f.Handler(), free: free, rec: rec,
		stopPost: make(chan struct{}), drained: make(chan struct{}),
		quit: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

// stop ends submissions, keeps the fleet running until every submission
// has alerted (at most a few monitoring windows of simulated time), then
// stops the client and returns its measurements. Submissions that never
// alerted count as failed: their deferred spawn never took effect.
func (c *apiClient) stop(f *fleet.Fleet, round time.Duration) *apiResult {
	close(c.stopPost)
	period := f.Config().Machine.Kernel.Tunables.Period
	deadline := f.Now() + 4*period + 4*round
	for f.Now() < deadline && !closed(c.drained) {
		f.Run(round)
	}
	close(c.quit)
	<-c.done
	return &c.res
}

func (c *apiClient) loop() {
	defer close(c.done)
	var out []*outstanding
	posting := true
	nextPost := time.Now()
	var req uint64
	for {
		select {
		case <-c.quit:
			c.res.neverAlerted = len(out)
			return
		case <-c.stopPost:
			posting = false
		default:
		}
		now := time.Now()
		if posting && !now.Before(nextPost) {
			req++
			if o := c.post(req, nextPost); o != nil {
				out = append(out, o)
			}
			nextPost = nextPost.Add(postEvery)
		}
		kept := out[:0]
		for _, o := range out {
			if !time.Now().Before(o.nextPoll) && c.poll(o) {
				continue
			}
			kept = append(kept, o)
		}
		out = kept
		if !posting && len(out) == 0 && !closed(c.drained) {
			close(c.drained)
		}
		wake := now.Add(pollEvery)
		if posting && nextPost.Before(wake) {
			wake = nextPost
		}
		for _, o := range out {
			if o.nextPoll.Before(wake) {
				wake = o.nextPoll
			}
		}
		if d := time.Until(wake); d > 0 {
			time.Sleep(d)
		}
	}
}

// post submits a 4-thread Monero miner for a fresh tenant onto a machine
// the population left empty.
func (c *apiClient) post(req uint64, due time.Time) *outstanding {
	tenant := fmt.Sprintf("%s%d", apiTenantPrefix, req)
	machine := c.free[int(req-1)%len(c.free)]
	body := fmt.Sprintf(`{"tenant":%q,"kind":"miner","machine":%d,"pin":true}`, tenant, machine)
	code, _, start, end := c.do(http.MethodPost, "/api/v1/workloads", body)
	c.res.posts++
	c.late(start, due)
	c.res.postMs = append(c.res.postMs, ms(end.Sub(due)))
	c.rec.add(0, 0, req, "api.POST", start, end)
	if code != http.StatusCreated {
		c.res.non2xx++
		return nil
	}
	return &outstanding{req: req, tenant: tenant, due: due, nextPoll: end}
}

// poll reads the submission's tenant-scoped alerts since its cursor and
// reports whether its first alert has arrived.
func (c *apiClient) poll(o *outstanding) bool {
	due := o.nextPoll
	o.nextPoll = o.nextPoll.Add(pollEvery)
	url := fmt.Sprintf("/api/v1/alerts?tenant=%s&since=%d", o.tenant, o.since)
	code, body, start, end := c.do(http.MethodGet, url, "")
	c.res.gets++
	c.late(start, due)
	c.res.pollMs = append(c.res.pollMs, ms(end.Sub(due)))
	c.rec.add(0, 0, o.req, "api.GET", start, end)
	if code != http.StatusOK {
		c.res.non2xx++
		return false
	}
	var page struct {
		Alerts []json.RawMessage `json:"alerts"`
		Next   uint64            `json:"next"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		c.res.non2xx++
		return false
	}
	o.since = page.Next
	if len(page.Alerts) == 0 {
		return false
	}
	c.res.submitAlertMs = append(c.res.submitAlertMs, ms(end.Sub(o.due)))
	return true
}

func (c *apiClient) do(method, url, body string) (code int, resp []byte, start, end time.Time) {
	r := httptest.NewRequest(method, url, strings.NewReader(body))
	w := httptest.NewRecorder()
	start = time.Now()
	c.h.ServeHTTP(w, r)
	end = time.Now()
	return w.Code, w.Body.Bytes(), start, end
}

func (c *apiClient) late(start, due time.Time) {
	if l := ms(start.Sub(due)); l > c.res.maxLateMs {
		c.res.maxLateMs = l
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
