package analysis

import "strings"

// SimPackages is the one shared list of simulation-package path
// substrings every scoped analyzer derives its default scope from
// (determinism lexically, hosttaint/statecheck/sharecheck through their
// Scope variables, and cmd/cryptojacklint's -sim-pkgs flag). These are
// the packages whose mutable state feeds the RSX counter pipeline and
// whose round barriers extend the serial/parallel bit-identity guarantee
// to whole fleets (DESIGN.md §5b, FLEET.md); isa and microcode are
// included because decoded programs and tag tables determine which
// instructions count as RSX events, and gsa because its profiles feed
// admission and the detection prior — a nondeterministic ranking would
// make admission verdicts differ across runs.
// Wall-clock or map-order nondeterminism elsewhere (CLI rendering,
// experiments, obs export) cannot break either guarantee.
var SimPackages = []string{
	"internal/kernel",
	"internal/cpu",
	"internal/mem",
	"internal/counters",
	"internal/machine",
	"internal/fleet",
	"internal/isa",
	"internal/microcode",
	"internal/gsa",
}

// SimScopeDefault is SimPackages as a comma-joined flag default.
func SimScopeDefault() string { return strings.Join(SimPackages, ",") }

// InScope reports whether pkgPath matches any of the scope substrings
// (ignoring empty entries), the same containment rule the driver's
// per-package filter applies.
func InScope(scope []string, pkgPath string) bool {
	for _, s := range scope {
		if s = strings.TrimSpace(s); s != "" && strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}
