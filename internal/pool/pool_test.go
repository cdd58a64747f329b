package pool

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolClaimsEachIndexOnce: over repeated Runs of varying length, every
// index is handed to exactly one worker, the worker ids stay in range, and
// every call has finished when Run returns. Run it under -race: the
// per-item counters are plain increments, so a claim that escaped the
// barrier or an index run twice concurrently is a reported race.
func TestPoolClaimsEachIndexOnce(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		hits := make([]int, 64)
		var badWorker atomic.Int64
		p := New(workers, func(w, i int) {
			if w < 0 || w >= workers {
				badWorker.Store(int64(w) + 1)
			}
			hits[i]++
		})
		for round := 0; round < 200; round++ {
			n := round % len(hits)
			for i := range hits {
				hits[i] = 0
			}
			p.Run(n)
			for i, h := range hits {
				want := 0
				if i < n {
					want = 1
				}
				if h != want {
					t.Fatalf("workers=%d round %d: index %d of %d ran %d times, want %d", workers, round, i, n, h, want)
				}
			}
		}
		p.Close()
		if w := badWorker.Load(); w != 0 {
			t.Errorf("workers=%d: item ran on worker %d", workers, w-1)
		}
	}
}

// TestPoolRunDoesNotAllocate: the per-item func is bound once at New, so a
// Run on a warm pool allocates nothing, whatever the worker count.
func TestPoolRunDoesNotAllocate(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		var sum atomic.Int64
		p := New(workers, func(_, i int) { sum.Add(int64(i)) })
		if allocs := testing.AllocsPerRun(100, func() { p.Run(16) }); allocs != 0 {
			t.Errorf("workers=%d: Run allocates %.1f objects, want 0", workers, allocs)
		}
		p.Close()
	}
}

// TestPoolRunZeroWakesNoHelper: Run(0) sends no start token. The pool's
// helper slot has no goroutine behind it, so a token sent would sit in
// the buffer (and Run would then hang at the barrier), and do is never
// called. The fleet relies on this for rounds with nothing due.
func TestPoolRunZeroWakesNoHelper(t *testing.T) {
	called := false
	p := &Pool{do: func(_, _ int) { called = true }, helpers: 1, start: make(chan struct{}, 1)}
	ran := make(chan time.Duration, 1)
	go func() { ran <- p.Run(0) }()
	select {
	case wait := <-ran:
		if wait != 0 {
			t.Errorf("Run(0) waited %v at the barrier", wait)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run(0) did not return in 10s, with %d start tokens sent", len(p.start))
	}
	if len(p.start) != 0 || called {
		t.Errorf("Run(0) sent %d start tokens and called do: %v; want neither", len(p.start), called)
	}
}

// TestPoolRunWakesEveryHelper: a Run with at least one item per worker
// puts every worker to work. Each call blocks until released, so with
// exactly one item per worker, each worker must claim one; a helper left
// parked would leave the rendezvous short until the others are released.
func TestPoolRunWakesEveryHelper(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		arrived := make(chan struct{}, workers)
		release := make(chan struct{})
		p := New(workers, func(_, _ int) {
			arrived <- struct{}{}
			<-release
		})
		ran := make(chan struct{})
		go func() {
			p.Run(workers)
			close(ran)
		}()
		// A worker blocks in its first call, so each arrival is a distinct
		// worker.
		started := 0
		timeout := time.After(10 * time.Second)
	wait:
		for started < workers {
			select {
			case <-arrived:
				started++
			case <-timeout:
				t.Errorf("workers=%d: %d workers started an item in 10s, want all", workers, started)
				break wait
			}
		}
		close(release)
		<-ran
		p.Close()
	}
}
