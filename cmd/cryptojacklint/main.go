// Command cryptojacklint is the reproduction's invariant linter: it runs
// the internal/analysis suite (determinism, locksetflow, lockorder,
// hotpath, hosttaint, sharecheck) over the module and reports every
// violation of the simulator's machine-checked conventions. All analyzers
// share one type-checked load of the module; the module-wide analyzers
// additionally share one call graph and one taint fixpoint. `make lint`
// wires it into the tier-1 gate; DESIGN.md §5d/§5g catalogue the
// analyzers and their annotation syntax.
//
// Usage:
//
//	cryptojacklint [-only names] [-sim-pkgs substrings]
//	               [-budget duration] [-time] [-list] [patterns]
//
// Patterns default to ./... (the whole module). Exit status is 1 when any
// finding is reported or the -budget wall-clock ceiling is exceeded, 2 on
// load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"darkarts/internal/analysis"
	"darkarts/internal/analysis/determinism"
	"darkarts/internal/analysis/hosttaint"
	"darkarts/internal/analysis/hotpath"
	"darkarts/internal/analysis/lockorder"
	"darkarts/internal/analysis/locksetflow"
	"darkarts/internal/analysis/sharecheck"
)

// simPackagesDefault scopes the determinism, hosttaint, and sharecheck
// analyzers to the simulation packages — the single shared list in
// analysis.SimPackages: the packages whose state feeds the RSX
// counter pipeline, the machine and fleet layers whose round barriers
// extend the serial/parallel bit-identity guarantee to whole fleets
// (FLEET.md), and the isa/microcode layers whose tables are part of the
// decoded-program surface. Wall-clock or map-order nondeterminism
// elsewhere (CLI rendering, experiments) cannot break either guarantee.
var simPackagesDefault = analysis.SimScopeDefault()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cryptojacklint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		simPkgs = fs.String("sim-pkgs", simPackagesDefault,
			"comma-separated package-path substrings the determinism analyzer is scoped to")
		budget = fs.Duration("budget", 0,
			"fail when the whole run (load + analyzers) exceeds this wall-clock ceiling")
		timing = fs.Bool("time", false, "report per-analyzer wall time on stderr")
		list   = fs.Bool("list", false, "list analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := []*analysis.Analyzer{
		determinism.Analyzer,
		locksetflow.Analyzer,
		lockorder.Analyzer,
		hotpath.Analyzer,
		hosttaint.Analyzer,
		sharecheck.Analyzer,
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-17s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "cryptojacklint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	// The module-wide taint analyzers bypass the per-package filter
	// below; their scope is plumbed through package variables instead.
	simScope := strings.Split(*simPkgs, ",")
	hosttaint.Scope = simScope
	sharecheck.Scope = simScope

	started := time.Now()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "cryptojacklint: %v\n", err)
		return 2
	}
	root, err := moduleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "cryptojacklint: cannot find go.mod above %s\n", cwd)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Resolve directory patterns against the invocation directory, not the
	// module root, so `cryptojacklint ./internal/cpu` works from anywhere.
	for i, p := range patterns {
		if strings.HasSuffix(p, "...") || filepath.IsAbs(p) {
			continue
		}
		patterns[i] = filepath.Join(cwd, p)
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "cryptojacklint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "cryptojacklint: %v\n", err)
		return 2
	}

	// determinism is the one package-scoped analyzer: everything else
	// runs everywhere.
	filter := func(a *analysis.Analyzer, pkgPath string) bool {
		if a != determinism.Analyzer {
			return true
		}
		for _, s := range simScope {
			if s = strings.TrimSpace(s); s != "" && strings.Contains(pkgPath, s) {
				return true
			}
		}
		return false
	}

	findings, timings, err := analysis.RunTimed(pkgs, analyzers, loader.Dirs, filter)
	if err != nil {
		fmt.Fprintf(stderr, "cryptojacklint: %v\n", err)
		return 2
	}

	// Suppression audit: malformed //lint:ignore comments are always
	// findings; unused ones only when the full analyzer set ran (a -only
	// run legitimately leaves other analyzers' suppressions idle).
	findings = append(findings, analysis.SuppressionFindings(loader.Dirs, *only == "")...)
	analysis.SortFindings(findings)

	elapsed := time.Since(started)
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(stderr, "cryptojacklint: %-17s %s\n", tm.Analyzer, tm.Elapsed.Round(10*time.Microsecond))
		}
		fmt.Fprintf(stderr, "cryptojacklint: %-17s %s\n", "total", elapsed.Round(10*time.Microsecond))
	}

	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", name, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "cryptojacklint: %d finding(s)\n", len(findings))
		return 1
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(stderr, "cryptojacklint: run took %s, over the %s budget\n",
			elapsed.Round(time.Millisecond), *budget)
		return 1
	}
	return 0
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
