package pool

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool runs a bound per-item func over index ranges on a fixed set of
// workers. Run must be called from one goroutine at a time, and not after
// Close.
type Pool struct {
	do      func(worker, i int)
	helpers int            // worker goroutines besides the caller (workers 1..helpers)
	start   chan struct{}  // one token per helper per Run; closed by Close
	done    sync.WaitGroup // helpers' passes in a Run, then their exits in Close
	n       int            // item count of the Run in flight
	next    atomic.Int64   // claim cursor into [0, n)
}

// New starts a pool of workers workers (at least 1) that calls do(w, i)
// for every item i of each Run, on worker w. workers-1 helper goroutines
// park until Run needs them; Close stops them.
func New(workers int, do func(worker, i int)) *Pool {
	workers = max(workers, 1)
	p := &Pool{do: do, helpers: workers - 1, start: make(chan struct{}, workers-1)}
	for w := 1; w <= p.helpers; w++ {
		go p.help(w)
	}
	return p
}

func (p *Pool) help(w int) {
	defer p.done.Done()
	for range p.start {
		p.claim(w)
		p.done.Done()
	}
}

// claim runs items off the shared cursor until every index is taken.
func (p *Pool) claim(w int) {
	for {
		k := int(p.next.Add(1)) - 1
		if k >= p.n {
			return
		}
		p.do(w, p.item(k))
	}
}

// item maps the cursor's k-th claim to an index. [0, n) is cut into one
// contiguous stripe per worker, and successive claims take the next index
// of successive stripes, so workers claiming in turn run indices about
// n/workers apart, and each tends to walk one stripe in order. Handing
// out [0, n) in plain order instead put neighbouring fleet machines on two
// workers at once, and the 256-machine fleet benchmark ran markedly
// slower on 2 workers (EXPERIMENTS.md, "One claim cursor for cores and
// machines").
func (p *Pool) item(k int) int {
	workers := p.helpers + 1
	s := k % workers
	q, r := p.n/workers, p.n%workers
	return s*q + min(s, r) + k/workers
}

// Run calls do once for every index in [0, n), each on exactly one worker,
// and returns at the barrier: when it returns every call has finished and
// its effects are visible to the caller. The caller claims items as worker
// 0 alongside the helpers. Run(0) returns at once and wakes no helper. Run
// allocates nothing. It reports how long the caller waited at the barrier
// after its own claims ran out.
func (p *Pool) Run(n int) (wait time.Duration) {
	if n <= 0 {
		return 0
	}
	p.n = n
	p.next.Store(0)
	p.done.Add(p.helpers)
	for range p.helpers {
		p.start <- struct{}{}
	}
	p.claim(0)
	if p.helpers == 0 {
		return 0
	}
	t0 := time.Now()
	p.done.Wait()
	return time.Since(t0)
}

// Close stops the helper goroutines and returns once they have exited.
// The pool must be idle, and is unusable afterwards.
func (p *Pool) Close() {
	p.done.Add(p.helpers)
	close(p.start)
	p.done.Wait()
}
