// Package sharecheck implements the fleet-sharing analyzer: when
// machines are constructed or mutated inside a loop, any pointer-like
// value that ends up reachable from more than one Machine couples the
// fleet — a write through one machine is visible from another, which
// breaks per-machine determinism. The only legitimately shared
// structures are the ones on Whitelist (the read-mostly translated-block
// pool and the fleet-wide microcode tag table); everything else is a
// diagnostic.
//
// Detection rides the taint engine's provenance summaries
// (internal/analysis/taint.go) and looks at calls inside for/range
// loops:
//
//   - Constructor flows: a call returning *Machine whose result paths
//     (TaintSummary.Ret) carry parameter or package-var provenance
//     stores caller memory into the new machine. If that origin is
//     loop-invariant (a global, a caller parameter, or an allocation
//     outside the innermost loop), every machine built by the loop
//     aliases it.
//   - Install flows: a call whose summary has parameter-to-state sinks
//     (TaintSummary.Sinks) where the destination memory is a
//     loop-varying machine (the destination argument mentions a
//     variable declared inside the loop) and the stored value has a
//     loop-invariant origin.
//
// Value-typed fields never alias and are skipped, as are destinations
// classified cryptojack:hostonly/immutable and sources classified
// cryptojack:immutable (write-once tables are safe to share by
// definition). Arguments that mention loop-declared variables (per-
// machine configs like cfgs[i]) are treated as per-iteration fresh.
package sharecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"darkarts/internal/analysis"
)

// Scope is the list of simulation-package path substrings; set by
// cmd/cryptojacklint from -sim-pkgs, narrowed by tests.
var Scope = analysis.SimPackages

// Whitelist names the types that may be shared across the machines of
// a fleet, as pkgpath.TypeName suffixes matched after unwrapping
// pointers, containers, and atomic.Pointer[T].
var Whitelist = []string{
	"internal/cpu.SharedBlocks",
	"internal/microcode.TagTable",
}

// Analyzer is the sharecheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "sharecheck",
	Doc:       "pointer-like state reachable from two fleet machines must be on the sharing whitelist",
	RunModule: run,
}

type checker struct {
	mp   *analysis.ModulePass
	t    *analysis.Tainter
	seen map[reportKey]bool
}

type reportKey struct {
	pos  token.Pos
	dest types.Object
}

// loopCtx describes the loop nest around a call: the innermost body
// (for allocation freshness) and every variable declared by any
// enclosing loop (for per-iteration destinations and arguments).
type loopCtx struct {
	body *ast.BlockStmt
	vars map[types.Object]bool
}

func run(mp *analysis.ModulePass) error {
	c := &checker{mp: mp, t: analysis.TainterFor(mp, Scope), seen: map[reportKey]bool{}}
	for _, fn := range mp.Graph.Functions() {
		decl := mp.Graph.Decl(fn)
		if decl == nil || decl.Body == nil {
			continue
		}
		c.checkFn(fn, decl)
	}
	return nil
}

func (c *checker) checkFn(fn *types.Func, decl *ast.FuncDecl) {
	pkg := c.mp.Graph.PackageOf(fn)
	if pkg == nil {
		return
	}
	callees := map[token.Pos][]*types.Func{}
	for _, site := range c.mp.Graph.CallsFrom(fn) {
		callees[site.Pos] = append(callees[site.Pos], site.Callee)
	}

	var loop *loopCtx
	enter := func(n ast.Node, body *ast.BlockStmt, walk func(ast.Node) bool) {
		outer := loop
		vars := map[types.Object]bool{}
		if outer != nil {
			for obj := range outer.vars {
				vars[obj] = true
			}
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pkg.Info.Defs[id]; obj != nil {
					vars[obj] = true
				}
			}
			return true
		})
		loop = &loopCtx{body: body, vars: vars}
		ast.Inspect(body, walk)
		loop = outer
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			enter(n, n.Body, walk)
			return false
		case *ast.RangeStmt:
			ast.Inspect(n.X, walk)
			enter(n, n.Body, walk)
			return false
		case *ast.FuncLit:
			// A literal's body runs on its own schedule; the enclosing
			// loop context does not apply.
			outer := loop
			loop = nil
			ast.Inspect(n.Body, walk)
			loop = outer
			return false
		case *ast.CallExpr:
			if loop != nil {
				c.checkCall(fn, pkg, n, callees[n.Pos()], loop)
			}
		}
		return true
	}
	ast.Inspect(decl.Body, walk)
}

func (c *checker) checkCall(fn *types.Func, pkg *analysis.Package, call *ast.CallExpr, callees []*types.Func, loop *loopCtx) {
	for _, callee := range callees {
		sum := c.t.Summary(callee)
		if sum == nil {
			continue
		}
		for _, sink := range analysis.SortedSinks(sum.Sinks) {
			c.checkSink(fn, pkg, call, callee, sink, loop)
		}
		if mt := machineResult(callee); mt != nil {
			for q, ts := range sum.Ret {
				if q == "" {
					continue
				}
				c.checkRetPath(fn, pkg, call, callee, mt, q, ts, loop)
			}
		}
	}
}

// checkRetPath handles constructor flows: sub-path q of the machine
// returned by callee carries provenance ts.
func (c *checker) checkRetPath(fn *types.Func, pkg *analysis.Package, call *ast.CallExpr, callee *types.Func, mt types.Type, q string, ts analysis.TagSet, loop *loopCtx) {
	fld, ok := c.destField(mt, q)
	if !ok || !sharedCapable(fld.Type()) {
		return
	}
	// A TagAlloc in the set means the callee built this value itself
	// (the flow-insensitive env flattens param content tags into the
	// fresh composite); per-call identity cannot alias across machines.
	for tag := range ts {
		if tag.Kind == analysis.TagAlloc {
			return
		}
	}
	for tag := range ts {
		switch tag.Kind {
		case analysis.TagParam:
			for _, arg := range callArgs(pkg, call, callee, tag.Param) {
				if mentionsLoopVar(pkg, arg, loop) {
					continue // per-iteration argument (cfgs[i] style)
				}
				if c.sharedOrigin(fn, c.t.EvalAt(fn, arg, tag.Path), loop) {
					c.report(call.Pos(), fld, fld.Type())
				}
			}
		case analysis.TagGlobal:
			if !c.mp.Dirs.HostSide(tag.Obj) {
				c.report(call.Pos(), fld, fld.Type())
			}
		default: // TagAlloc handled above; TagSource is hosttaint's job
		}
	}
}

// checkSink handles install flows: callee stores parameter/global
// memory into simulation state it reached through DestParam.
func (c *checker) checkSink(fn *types.Func, pkg *analysis.Package, call *ast.CallExpr, callee *types.Func, sink analysis.TaintSink, loop *loopCtx) {
	if sink.Field == nil || sink.DestParam < 0 || !sharedCapable(sink.VType) {
		return
	}
	destVaries := false
	for _, dst := range callArgs(pkg, call, callee, sink.DestParam) {
		if mentionsLoopVar(pkg, dst, loop) {
			destVaries = true
		}
	}
	if !destVaries {
		return // same machine every iteration: no cross-machine aliasing
	}
	if sink.Param >= 0 {
		for _, arg := range callArgs(pkg, call, callee, sink.Param) {
			if mentionsLoopVar(pkg, arg, loop) {
				continue
			}
			if c.sharedOrigin(fn, c.t.EvalAt(fn, arg, sink.Path), loop) {
				c.report(call.Pos(), sink.Field, sink.VType)
			}
		}
	} else if sink.Global != nil {
		// Engine already drops hostonly/immutable-classified globals.
		c.report(call.Pos(), sink.Field, sink.VType)
	}
}

// sharedOrigin reports whether the provenance set describes a
// loop-invariant value: caller parameters, non-exempt package vars, or
// allocations outside the innermost loop body.
func (c *checker) sharedOrigin(fn *types.Func, ts analysis.TagSet, loop *loopCtx) bool {
	for tag := range ts {
		switch tag.Kind {
		case analysis.TagParam:
			return true
		case analysis.TagGlobal:
			if !c.mp.Dirs.HostSide(tag.Obj) {
				return true
			}
		case analysis.TagAlloc:
			if tag.Pos.IsValid() && (tag.Pos < loop.body.Pos() || tag.Pos >= loop.body.End()) {
				return true
			}
		default: // TagSource: host nondeterminism is hosttaint's job
		}
	}
	return false
}

// destField resolves relative path q from the machine type, refusing
// chains through hostonly/immutable fields.
func (c *checker) destField(mt types.Type, q string) (*types.Var, bool) {
	var fld *types.Var
	t := mt
	for _, seg := range strings.Split(q[1:], ".") {
		f := analysis.FieldByName(t, seg)
		if f == nil {
			return fld, fld != nil
		}
		if c.mp.Dirs.HostSide(f) {
			return nil, false
		}
		fld = f
		t = f.Type()
	}
	return fld, fld != nil
}

func (c *checker) report(pos token.Pos, dest types.Object, vt types.Type) {
	if whitelisted(vt) {
		return
	}
	k := reportKey{pos: pos, dest: dest}
	if c.seen[k] {
		return
	}
	c.seen[k] = true
	c.mp.Reportf(pos, "machines built in this loop share mutable state %s (%s); fleet-wide sharing must be on the sharecheck whitelist",
		c.t.StateDest(dest), types.TypeString(vt, func(p *types.Package) string { return p.Name() }))
}

// whitelisted reports whether the shared structure behind t is one of
// the blessed fleet-wide types.
func whitelisted(t types.Type) bool {
	named := sharedNamed(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	for _, entry := range Whitelist {
		if strings.HasSuffix(full, entry) {
			return true
		}
	}
	return false
}

// sharedCapable reports whether values of type t can alias shared
// memory at all: pointer-like underlying types and atomic.Pointer[T].
func sharedCapable(t types.Type) bool {
	if isAtomicPointer(t) != nil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan:
		return true
	}
	return false
}

// sharedNamed unwraps pointers, containers, and atomic.Pointer[T] down
// to the named type actually being shared.
func sharedNamed(t types.Type) *types.Named {
	for i := 0; i < 16; i++ {
		if elem := isAtomicPointer(t); elem != nil {
			t = elem
			continue
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		default:
			named, _ := t.(*types.Named)
			return named
		}
	}
	return nil
}

// isAtomicPointer returns T when t is sync/atomic.Pointer[T].
func isAtomicPointer(t types.Type) types.Type {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
		return nil
	}
	if args := named.TypeArgs(); args != nil && args.Len() == 1 {
		return args.At(0)
	}
	return nil
}

// machineResult returns callee's first result type when it is a
// (pointer to a) struct named Machine declared in a scoped package.
func machineResult(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	rt := sig.Results().At(0).Type()
	t := rt
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Machine" || named.Obj().Pkg() == nil {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	if !analysis.InScope(Scope, named.Obj().Pkg().Path()) {
		return nil
	}
	return rt
}

// mentionsLoopVar reports whether e reads any variable declared inside
// an enclosing loop — the syntactic signal for a per-iteration value.
func mentionsLoopVar(pkg *analysis.Package, e ast.Expr, loop *loopCtx) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil && loop.vars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// callArgs maps callee parameter index i (receiver-first) to the
// argument expressions at call, resolved against the caller's type
// info; variadic tails return every remaining argument.
func callArgs(pkg *analysis.Package, call *ast.CallExpr, callee *types.Func, i int) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		if i == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, isSel := pkg.Info.Selections[sel]; isSel {
					return []ast.Expr{sel.X}
				}
			}
			return nil
		}
		i--
	}
	if sig.Variadic() && i >= sig.Params().Len()-1 {
		if sig.Params().Len()-1 < len(call.Args) {
			return call.Args[sig.Params().Len()-1:]
		}
		return nil
	}
	if i < len(call.Args) {
		return []ast.Expr{call.Args[i]}
	}
	return nil
}
