// Package sharedom exercises the sharecheck analyzer: constructor and
// install flows that alias one mutable structure across the machines
// of a loop-built fleet, plus the freshness, whitelist, hostonly, and
// immutable exemptions.
package sharedom

// Blessed is the fixture's whitelisted shared structure (the test
// narrows sharecheck.Whitelist to it).
type Blessed struct {
	hits map[string]int
}

// Buffer is mutable and NOT whitelisted: sharing it couples machines.
type Buffer struct {
	data []byte
}

// Config is the construction surface.
type Config struct {
	Pool   *Buffer
	Tables *Blessed
	Name   string
}

// Machine is the simulated unit.
type Machine struct {
	pool   *Buffer
	tables *Blessed
	local  *Buffer
	name   string
	obs    *Buffer // cryptojack:hostonly -- host-side trace sink
}

// New builds a machine: pool and tables alias the config's pointers,
// local is fresh per call.
func New(cfg Config) *Machine {
	return &Machine{
		pool:   cfg.Pool,
		tables: cfg.Tables,
		local:  &Buffer{data: make([]byte, 16)},
		name:   cfg.Name,
	}
}

// BuildFleet shares one config — and so one pool — across every
// machine. The tables pointer is shared too, but Blessed is
// whitelisted.
func BuildFleet(n int) []*Machine {
	cfg := Config{Pool: &Buffer{}, Tables: &Blessed{}, Name: "m"}
	ms := make([]*Machine, 0, n)
	for i := 0; i < n; i++ {
		ms = append(ms, New(cfg)) // want `machines built in this loop share mutable state sharedom\.Machine\.pool \(\*sharedom\.Buffer\); fleet-wide sharing must be on the sharecheck whitelist`
	}
	return ms
}

// BuildFresh allocates a pool per iteration: nothing is shared.
func BuildFresh(n int) []*Machine {
	ms := make([]*Machine, 0, n)
	for i := 0; i < n; i++ {
		cfg := Config{Pool: &Buffer{}, Name: "m"}
		ms = append(ms, New(cfg))
	}
	return ms
}

// BuildIndexed draws per-machine configs from a slice: the loop-var
// index marks the argument per-iteration.
func BuildIndexed(cfgs []Config) []*Machine {
	ms := make([]*Machine, 0, len(cfgs))
	for i := range cfgs {
		ms = append(ms, New(cfgs[i]))
	}
	return ms
}

var defaultPool = &Buffer{}

var sharedTables = &Blessed{}

// opTable is write-once and safe to share.
//
//cryptojack:immutable
var opTable = &Buffer{}

// Install stores the package-level pool into a machine.
func Install(m *Machine) {
	m.pool = defaultPool
}

// Refit installs the same global pool into every machine of the fleet.
func Refit(ms []*Machine) {
	for _, m := range ms {
		Install(m) // want `machines built in this loop share mutable state sharedom\.Machine\.pool \(\*sharedom\.Buffer\); fleet-wide sharing must be on the sharecheck whitelist`
	}
}

// InstallTables shares the whitelisted structure: clean.
func InstallTables(m *Machine) {
	m.tables = sharedTables
}

func RefitTables(ms []*Machine) {
	for _, m := range ms {
		InstallTables(m)
	}
}

// Wire stores an arbitrary caller buffer into a machine.
func Wire(m *Machine, b *Buffer) {
	m.pool = b
}

// RefitWire feeds one caller-supplied buffer to every machine.
func RefitWire(ms []*Machine, b *Buffer) {
	for _, m := range ms {
		Wire(m, b) // want `machines built in this loop share mutable state sharedom\.Machine\.pool \(\*sharedom\.Buffer\); fleet-wide sharing must be on the sharecheck whitelist`
	}
}

// Patch rewires ONE machine many times: the destination never varies,
// so no cross-machine aliasing arises.
func Patch(m *Machine, bufs []*Buffer) {
	for _, b := range bufs {
		Wire(m, b)
	}
}

// Observe writes into a hostonly field: exempt.
func Observe(m *Machine) {
	m.obs = defaultPool
}

func RefitObs(ms []*Machine) {
	for _, m := range ms {
		Observe(m)
	}
}

// Op shares the immutable table: exempt at the source.
func Op(m *Machine) {
	m.local = opTable
}

func RefitOps(ms []*Machine) {
	for _, m := range ms {
		Op(m)
	}
}
