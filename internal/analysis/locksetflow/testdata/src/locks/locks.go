// Package locks holds the straight-line guarded-by cases: unlocked reads
// and writes, a read after Unlock, a write under RLock, a `go` closure,
// and the lock-placement idioms that must stay quiet.
package locks

import "sync"

// counterSet carries the straight-line cases: a field guarded from its
// doc comment, a field guarded from its line comment, and every
// lock-placement idiom the simulator relies on.
type counterSet struct {
	mu sync.Mutex
	// total is the running sum. guarded by mu
	total uint64
	names []string // guarded by mu
}

func (c *counterSet) Good() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	return c.total
}

func (c *counterSet) Bad() uint64 {
	return c.total // want `read of total in Bad: c\.mu is not held on every path`
}

func (c *counterSet) BadWrite(n uint64) {
	c.total += n // want `write of total in BadWrite: c\.mu is not held on every path`
}

func (c *counterSet) BadAfterUnlock() int {
	c.mu.Lock()
	c.names = append(c.names, "x")
	c.mu.Unlock()
	return len(c.names) // want `read of names in BadAfterUnlock: c\.mu is not held on every path`
}

//cryptojack:locked
func (c *counterSet) addLocked(n uint64) {
	c.total += n // ok: contract says caller holds mu
}

func (c *counterSet) ViaHelper(n uint64) {
	c.mu.Lock()
	c.addLocked(n)
	c.mu.Unlock()
}

func (c *counterSet) GoodEarlyReturn(stop bool) {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		return
	}
	c.total++ // ok: the early-return branch's Unlock is off this path
	c.mu.Unlock()
}

func (c *counterSet) GoodDeferredClosure() {
	defer func() {
		c.mu.Lock()
		c.total++ // ok: the closure is its own scope and holds the lock
		c.mu.Unlock()
	}()
}

func (c *counterSet) BadClosure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.total++ // want `write of total in BadClosure: c\.mu is not held on every path`
	}()
}

func newSet() *counterSet {
	c := &counterSet{}
	c.total = 1 // ok: value has not escaped yet
	return c
}

type table struct {
	mu   sync.RWMutex
	rows []int // guarded by mu
}

func (r *table) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rows)
}

func (r *table) BadAppend(v int) {
	r.mu.RLock()
	r.rows = append(r.rows, v) // want `write of rows in BadAppend under r\.mu\.RLock: writes need the exclusive Lock`
	r.mu.RUnlock()
}

func (r *table) GoodAppend(v int) {
	r.mu.Lock()
	r.rows = append(r.rows, v)
	r.mu.Unlock()
}

func (r *table) Suppressed() int {
	//lint:ignore locksetflow single-goroutine setup phase, no readers yet
	return len(r.rows)
}
