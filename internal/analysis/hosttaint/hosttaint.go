// Package hosttaint implements the interprocedural host-nondeterminism
// taint analyzer: values derived from host-nondeterminism sources —
// time.Now/Since/Until, global math/rand, runtime.*, os.Getenv and
// friends, and map iteration order — must not flow into simulation
// state, meaning fields of structs declared in the simulation packages
// (analysis.SimPackages) that are not classified cryptojack:hostonly or
// cryptojack:immutable. Flows are tracked through helper returns,
// struct copies, field paths, and call-graph summaries (the taint
// engine in internal/analysis/taint.go), which the lexical determinism
// analyzer cannot follow. It complements determinism rather than
// replacing it: the engine tracks data flow only, so a host source that
// decides a branch (`if rand.Intn(2) == 0 { k.nextPid++ }`) reaches
// state through control dependence and only determinism's ban on the
// source catches it (EXPERIMENTS.md). Justified host-data destinations
// (metric timestamps, worker sizing) are classified hostonly rather
// than suppressed; //lint:ignore hosttaint remains for the exceptional
// case.
package hosttaint

import (
	"darkarts/internal/analysis"
)

// Scope is the list of simulation-package path substrings whose struct
// fields count as simulation state. cmd/cryptojacklint sets it from
// -sim-pkgs; tests narrow it to fixture packages.
var Scope = analysis.SimPackages

// Analyzer is the hosttaint analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "hosttaint",
	Doc:       "host-nondeterministic values (wall clock, global rand, runtime.*, env, map order) must not reach simulation state",
	RunModule: run,
}

func run(mp *analysis.ModulePass) error {
	t := analysis.TainterFor(mp, Scope)
	t.ReportHostFlows(mp.Reportf)
	return nil
}
