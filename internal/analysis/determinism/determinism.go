// Package determinism flags host nondeterminism inside the simulation
// packages. The parallel scheduler's contract (DESIGN.md §5b) is that a
// quantum's plan→execute→merge produces bit-identical results to serial
// execution, and the fleet extends it to any shard count; reading the
// host wall clock, the environment or the CPU count, drawing from the
// process-global math/rand stream, or ranging over a map in an
// order-sensitive position each silently breaks that guarantee.
//
// Four patterns are reported:
//
//   - calls to time.Now (host wall clock is per-run state);
//   - calls to os.Getenv, os.LookupEnv and os.Environ, runtime.GOMAXPROCS
//     and runtime.NumCPU (the environment and the host's CPU count differ
//     between runs and hosts);
//   - calls to package-level math/rand (and math/rand/v2) functions that
//     draw from the global stream (it is shared and lock-ordered). The
//     seeded constructors (rand.New, rand.NewSource, rand.NewZipf, and
//     v2's New, NewPCG, NewChaCha8 and NewZipf) draw nothing from it and
//     build exactly the caller-owned generators the message recommends,
//     so they are not reported; neither are methods on those generators;
//   - range over a map, unless the loop only collects keys/values into
//     slices that are subsequently sorted in the same function.
//
// The ban is on the call, not on where its value flows: a host value that
// only decides a branch changes simulation state as surely as one stored
// into it. Host reads that feed only host-side telemetry or size a worker
// pool (never simulation state) are suppressed site-by-site with
// //lint:ignore determinism and a justification.
package determinism

import (
	"go/ast"
	"go/types"

	"darkarts/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag time.Now, environment and CPU-count reads, global math/rand, and unsorted map " +
		"iteration in simulation packages (each breaks the serial/parallel bit-identity guarantee)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// hostReads are the banned host-state reads beyond time.Now, keyed by
// package path and function name.
var hostReads = map[string]map[string]bool{
	"os":      {"Getenv": true, "LookupEnv": true, "Environ": true},
	"runtime": {"GOMAXPROCS": true, "NumCPU": true},
}

// checkCall reports time.Now, host-state reads and package-level
// math/rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if ok && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "time" && fn.Name() == "Now":
			pass.Reportf(call.Pos(),
				"call to time.Now in a simulation package: host wall clock is per-run state and breaks serial/parallel bit-identity (use the kernel clock)")
		case hostReads[fn.Pkg().Path()][fn.Name()]:
			pass.Reportf(call.Pos(),
				"call to %s.%s in a simulation package: host state differs between runs and hosts (pass the value in through a config)",
				fn.Pkg().Name(), fn.Name())
		case (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") && isPackageLevel(fn) && !seededConstructors[fn.Name()]:
			pass.Reportf(call.Pos(),
				"call to global %s.%s: the shared stream makes results depend on goroutine interleaving (use a seeded *rand.Rand owned by the caller)",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// seededConstructors are the math/rand and math/rand/v2 package-level
// functions that build a caller-owned generator from an explicit seed or
// source. Each name exists in one or both packages.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// isPackageLevel reports whether fn is a package-level function (methods
// on *rand.Rand are deterministic given a seed and therefore allowed).
func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// checkMapRanges flags map-range loops in body unless every slice the loop
// appends into is later passed to a sort call in the same function.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if sortedCollection(pass, body, rng) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"map iteration order is nondeterministic: sort the keys first, or collect into a slice and sort it before any order-sensitive use")
		return true
	})
}

// sortedCollection reports whether rng only collects keys/values into
// slices via append, with every such slice later sorted (a sort.* or
// slices.Sort* call after the loop in the same function body).
func sortedCollection(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt) bool {
	collected := map[types.Object]bool{}
	clean := true
	for _, stmt := range rng.Body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			clean = false
			break
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "append") {
			clean = false
			break
		}
		ident, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			clean = false
			break
		}
		obj := pass.TypesInfo.Uses[ident]
		if obj == nil {
			obj = pass.TypesInfo.Defs[ident]
		}
		if obj == nil {
			clean = false
			break
		}
		collected[obj] = true
	}
	if !clean || len(collected) == 0 {
		return false
	}
	// Every collected slice must feed a sort call positioned after the loop.
	for obj := range collected {
		if !sortedAfter(pass, body, rng, obj) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj is referenced inside a sort.*/slices.*
// call that starts after rng ends.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isBuiltin reports whether fun names the given builtin.
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
