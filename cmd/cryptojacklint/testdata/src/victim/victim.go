// Package victim is the cryptojacklint end-to-end fixture: a package with
// one seeded violation per analyzer (plus one suppressed site), used by
// the cmd test to golden-diff the binary's diagnostics and exit code.
package victim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

type miner struct {
	mu     sync.Mutex
	shares uint64 // guarded by mu
	hashes uint64
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

// AddHash uses the atomic API for hashes...
func (m *miner) AddHash() {
	atomic.AddUint64(&m.hashes, 1)
}

// Hashes seeds an atomiccheck violation: ...but reads it plainly here.
func (m *miner) Hashes() uint64 {
	return m.hashes
}

// HashesSettled is the suppressed counterpart: the binary must honour
// //lint:ignore and report nothing for this line.
func (m *miner) HashesSettled() uint64 {
	//lint:ignore atomiccheck read happens after the worker pool has drained
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

type stage uint8

const (
	stageFetch stage = iota
	stageDecode
	stageExecute
)

// Advance seeds an exhaustivedecode violation: the switch handles two of
// the three pipeline stages and has no default.
func Advance(s stage) stage {
	switch s {
	case stageFetch:
		return stageDecode
	case stageDecode:
		return stageExecute
	}
	return stageFetch
}

// Throttle seeds a ctrange violation: a 32-bit accumulator fed full-range
// 32-bit samples wraps long before the monitoring window closes.
func Throttle(samples []uint32) uint32 {
	var acc uint32
	for _, s := range samples {
		acc += s
	}
	return acc
}

// growBlock seeds a hotpath allocation violation in the style of a
// basic-block cache bug: appending decoded ops inside the dispatch loop
// instead of building the block on the coldpath miss.
//
//cryptojack:hotpath
func growBlock(block []stage, s stage) []stage {
	return append(block, s)
}

// Machine roots the sharecheck loop analysis (the cmd test narrows
// -sim-pkgs to this package). Its fields are simulation state: rig is
// the structure the loop below aliases across machines, and stamp is
// where the hosttaint seed stores the wall clock. Only a hostonly or
// immutable marker would exempt them.
type Machine struct {
	rig   *rig
	stamp int64
}

// rig is the mutable structure the sharecheck seed aliases fleet-wide.
type rig struct {
	temp uint64
}

// sharedRig is the loop-invariant pointer every machine below receives.
// It carries no hostonly or immutable marker, so sharing it is a
// finding.
var sharedRig = &rig{}

// install stores the package-level rig into one machine.
func install(m *Machine) {
	m.rig = sharedRig
}

// Fleet seeds a sharecheck violation: every machine visited by the loop
// ends up aliasing sharedRig, and victim.rig is not on the whitelist.
func Fleet(ms []*Machine) {
	for _, m := range ms {
		install(m)
	}
}

// clock launders the wall clock through a return value. The lexical
// determinism finding here is suppressed so the interprocedural
// hosttaint flow is reported once, at the store in Mark.
func clock() int64 {
	//lint:ignore determinism seeded hosttaint flow, reported at the store site instead
	return time.Now().UnixNano()
}

// Mark seeds a hosttaint violation: the laundered clock value lands in
// simulation state two calls away from the time.Now source.
func Mark(m *Machine) {
	m.stamp = clock()
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
	//lint:ignore atomiccheck
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
