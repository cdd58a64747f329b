// Package victim is the cryptojacklint end-to-end fixture: seeded
// violations for every analyzer, suppressed sites and clean twins,
// which the cmd test golden-diffs against the binary's diagnostics.
package victim

import (
	"fmt"
	"sync"
	"time"
)

// miner carries the guarded counters of the locksetflow seeds below.
type miner struct {
	mu     sync.Mutex
	shares uint64 // guarded by mu
	hashes uint64 // guarded by mu
}

// Stamp seeds a determinism violation: wall-clock time in simulation state.
func (m *miner) Stamp() int64 {
	return time.Now().UnixNano()
}

// Shares seeds a locksetflow violation: a guarded read without the lock.
func (m *miner) Shares() uint64 {
	return m.shares
}

// AddShare holds the lock correctly.
func (m *miner) AddShare() {
	m.mu.Lock()
	m.shares++
	m.mu.Unlock()
}

// AddHash records one hash attempt under the lock.
func (m *miner) AddHash() {
	m.mu.Lock()
	m.hashes++
	m.mu.Unlock()
}

// HashesSettled is the suppressed site: a guarded read without the
// lock, which locksetflow reports, under a //lint:ignore that the
// binary must honour, so nothing is reported for this line. The
// justification names why the read is safe: the pool that writes
// hashes has drained by the time anyone settles the count.
func (m *miner) HashesSettled() uint64 {
	//lint:ignore locksetflow read happens after the worker pool has drained
	return m.hashes
}

// step seeds a hotpath violation: a formatting call on the hot loop.
//
//cryptojack:hotpath
func (m *miner) step(n uint64) string {
	return fmt.Sprintf("step-%d", n)
}

type vault struct {
	mu    sync.Mutex
	coins uint64 // guarded by mu
}

// Coins seeds a locksetflow violation a lexical lock scan cannot see:
// the lock is taken on one branch only, so it is not held on every path
// to the access, but a source-order scan sees the Lock call first and
// stays quiet.
func (v *vault) Coins(audit bool) uint64 {
	if audit {
		v.mu.Lock()
		defer v.mu.Unlock()
	}
	return v.coins
}

type ledger struct {
	mu sync.Mutex
	n  uint64
}

type journal struct {
	mu sync.Mutex
	n  uint64
}

// led is the first lock of the lockorder seed below.
var led ledger

// jrn is the second.
var jrn journal

// Post seeds one leg of a lockorder cycle: ledger.mu → journal.mu...
func Post() {
	led.mu.Lock()
	defer led.mu.Unlock()
	jrn.mu.Lock()
	jrn.n++
	jrn.mu.Unlock()
}

// Reconcile seeds the other leg: journal.mu → ledger.mu. Two goroutines
// running Post and Reconcile concurrently can deadlock.
func Reconcile() {
	jrn.mu.Lock()
	defer jrn.mu.Unlock()
	led.mu.Lock()
	led.n++
	led.mu.Unlock()
}

// op is one decoded instruction of the basic-block seeds below.
type op uint8

// countRSX is the clean hotpath counterpart of growBlock: it scans a
// decoded block the way the interpreter's dispatch loop does, without
// allocating, formatting or locking, so the binary must report nothing
// here. A hotpath false positive on loops, comparisons or counter
// increments would show up in the golden file as an extra line.
//
//cryptojack:hotpath
func countRSX(block []op, rsx op) uint64 {
	var n uint64
	for _, o := range block {
		if o == rsx {
			n++
		}
	}
	return n
}

// Total is the clean locksetflow counterpart of Coins: the same guarded
// read, but mu is taken unconditionally, so it is held on every path to
// the access and the binary must report nothing here. It also adds no
// lock-order edge: vault.mu is never held together with another lock.
func (v *vault) Total() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.coins
}

// growBlock seeds a hotpath allocation violation in the style of a
// basic-block cache bug: appending decoded ops inside the dispatch loop
// instead of building the block on the coldpath miss.
//
//cryptojack:hotpath
func growBlock(block []op, s op) []op {
	return append(block, s)
}

// Machine is the simulated host of the clean twins below. Its fields are
// simulation state: per-machine, and reached only by values derived from
// the simulated clock, never from the host.
type Machine struct {
	rig   *rig
	stamp int64
}

// rig is per-machine mutable state.
type rig struct {
	temp uint64
}

// Fleet is clean: every machine gets its own rig. A rig shared across
// machines is a fleet isolation bug that no analyzer reports; the fleet's
// differential tests and -race catch it at run time instead, because a
// shared rig changes results and races between workers.
func Fleet(ms []*Machine) {
	for _, m := range ms {
		m.rig = &rig{}
	}
}

// logStamp reads the host wall clock for a log line only. The binary
// must honour the //lint:ignore below and report nothing here: the
// suppressed leg of the determinism seeds. Host reads that would reach
// simulation state (time.Now, os.Getenv, runtime.NumCPU) are reported
// at the call, wherever their value goes.
func logStamp() int64 {
	//lint:ignore determinism host wall clock feeds a log line only, never simulation state
	return time.Now().UnixNano()
}

// Mark is clean: the stamp is the simulated time the caller passes in,
// so every run and every shard count stores the same value. A host value
// here would be a determinism finding at its source call instead.
func Mark(m *Machine, simNow int64) {
	m.stamp = simNow
}

// Heat warms one machine's own rig. It touches no other machine, so a
// fleet may run it on many machines at once without a lock, and the
// result is the same whichever worker runs which machine.
func Heat(m *Machine) {
	m.rig.temp++
}

// Settle seeds the suppression audit's unused leg: there is no hotpath
// diagnostic on the return line, so the comment itself is the finding.
func Settle() uint64 {
	//lint:ignore hotpath nothing fires here; the audit must flag this comment
	return 0
}

// Drain seeds the suppression audit's malformed leg: an analyzer list
// with no justification.
func Drain() uint64 {
	//lint:ignore locksetflow
	return 0
}

// RankLoops seeds the determinism violation guest static analysis is in
// lint scope to catch: ranking loop scores by ranging over a map appends
// in encounter order, so the profile's hot-loop list differs across runs.
// (internal/gsa collects into a slice and sorts; this is the bug shape.)
func RankLoops(scores map[int]float64) []int {
	var ranked []int
	for pc, s := range scores {
		if s >= 1 {
			ranked = append(ranked, pc)
		}
	}
	return ranked
}

// coordinator mirrors the fleet round loop's shape: simTime is the
// barrier-owned simulation clock, advanced only while mu is held.
type coordinator struct {
	mu      sync.Mutex
	simTime int64 // guarded by mu
}

// Advance seeds the outside-the-barrier mutation the fleet's collect
// discipline forbids: the simulation clock moves without the
// coordinator's lock, so an API reader can observe a torn round.
func (c *coordinator) Advance(round int64) {
	c.simTime += round
}

// Barrier is the correct counterpart: the clock only moves under mu.
func (c *coordinator) Barrier(round int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.simTime += round
	return c.simTime
}
