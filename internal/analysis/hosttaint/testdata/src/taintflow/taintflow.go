// Package taintflow exercises the hosttaint analyzer: host-
// nondeterministic values reaching simulation state through direct
// stores, helper returns, struct copies, setter calls, and map
// iteration order, plus the hostonly/sort-cleansing exemptions.
package taintflow

import (
	"os"
	"runtime"
	"sort"
	"time"
)

// Config is part of the machine's construction surface.
type Config struct {
	Name   string
	Budget int
}

// Machine is the simulated unit; its fields are simulation state unless
// classified hostonly.
type Machine struct {
	seed    int64
	cfg     Config
	order   []string
	sorted  []string
	index   map[string]int
	started time.Time // cryptojack:hostonly -- wall-clock metric, never feeds counters
	workers int       // cryptojack:hostonly -- host worker sizing
}

// direct store of the wall clock into state.
func (m *Machine) stampDirect() {
	m.seed = time.Now().UnixNano() // want `host-nondeterministic value \(time\.Now\) flows into simulation state taintflow\.Machine\.seed`
}

// hostSeed launders the clock through a helper return.
func hostSeed() int64 {
	return time.Now().UnixNano()
}

func (m *Machine) stampLaundered() {
	m.seed = hostSeed() // want `host-nondeterministic value \(time\.Now\) flows into simulation state taintflow\.Machine\.seed`
}

// setSeed is a clean setter; the taint arrives through its argument.
func (m *Machine) setSeed(v int64) {
	m.seed = v
}

func (m *Machine) stampViaSetter() {
	m.setSeed(hostSeed()) // want `host-nondeterministic value \(time\.Now\) flows into simulation state taintflow\.Machine\.seed via taintflow\.Machine\.setSeed`
}

// configure carries env taint through a struct copy: only the tainted
// sub-path is reported, resolved to the deepest field.
func (m *Machine) configure(budget int) {
	var cfg Config
	cfg.Name = os.Getenv("MACHINE_NAME")
	cfg.Budget = budget
	m.cfg = cfg // want `host-nondeterministic value \(os\.Getenv\) flows into simulation state taintflow\.Config\.Name`
}

// collect leaks map iteration order into state.
func (m *Machine) collect() {
	for k := range m.index {
		m.order = append(m.order, k) // want `host-nondeterministic value \(map iteration order\) flows into simulation state taintflow\.Machine\.order`
	}
}

// collectSorted is the cleansed variant: sorting the keys removes the
// iteration-order taint.
func (m *Machine) collectSorted() {
	keys := make([]string, 0, len(m.index))
	for k := range m.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	m.sorted = keys
}

// hostFields shows the hostonly exemption: wall clock and GOMAXPROCS
// may land in classified host-side fields.
func (m *Machine) hostFields() {
	m.started = time.Now()
	m.workers = runtime.GOMAXPROCS(0)
}

// tune stores GOMAXPROCS into state: flagged.
func (m *Machine) tune() {
	m.cfg.Budget = runtime.GOMAXPROCS(0) // want `host-nondeterministic value \(runtime\.GOMAXPROCS\) flows into simulation state taintflow\.Config\.Budget`
}
