// Package analysis is the reproduction's static-analysis framework: a
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// driver shape (Analyzer, Pass, Diagnostic) on the standard library's
// go/ast, go/types, and go/build packages, so the lint suite builds with
// zero external dependencies.
//
// The framework exists because the simulator's correctness arguments are
// conventions — the plan→execute→merge quantum must stay bit-identical to
// serial execution, "guarded by" fields must only be touched under their
// mutex, and the interpreter hot path must stay allocation- and lock-free.
// The six analyzers under internal/analysis/... (determinism,
// locksetflow, lockorder, hotpath, hosttaint, sharecheck) turn those
// conventions into machine-checked invariants; cmd/cryptojacklint is the
// multichecker that runs them, and DESIGN.md §5d catalogues the
// annotation syntax each one consumes.
package analysis
