// Package locksetflow verifies `// guarded by <field>` annotations with a
// must-hold lockset dataflow over the control-flow graph instead of a
// lexical scan. It computes, for every program point, the set of mutexes
// held on *every* path reaching it:
//
//   - a lock acquired on only one branch is not held after the merge
//     (the branch-leaked lock lexical scans cannot see);
//   - an unlock on one branch kills the lockset at the merge, so the
//     unlock-on-one-branch bug — `if err { mu.Unlock() }; s.f++` — is
//     reported at the access;
//   - short-circuit conditions are decomposed, so a lock taken in the
//     right operand of `&&` is correctly conditional.
//
// The analysis is interprocedural through function summaries: a module
// function that definitely acquires (and still holds at exit) or releases
// a receiver-bound mutex propagates that effect to its call sites, so
// `k.lockAll()` / `k.unlockAll()` helpers participate in the lockset.
// Summaries are computed to a fixpoint over the module call graph, which
// the driver shares across all module analyzers.
//
// Lock identity is the pair (mutex field object, rendered receiver
// chain): `a.mu` and `b.mu` are different locks even though they are the
// same field, and every `k.mu` of the same local chain is the same lock.
// Functions annotated //cryptojack:locked keep their "caller holds the
// mutex" contract and are exempt; closures establish their own lockset.
package locksetflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"darkarts/internal/analysis"
	"darkarts/internal/analysis/cfg"
)

// Analyzer is the flow-sensitive guarded-field checker.
var Analyzer = &analysis.Analyzer{
	Name:      "locksetflow",
	Doc:       "flow-sensitive `// guarded by` verification: guarded fields need their mutex held on every path; writes need the exclusive lock",
	RunModule: run,
}

// mode distinguishes how strongly a lock is held.
type mode uint8

const (
	modeR mode = iota + 1 // read lock (RLock)
	modeL                 // exclusive lock
)

// key identifies one lock within a function: the mutex's object identity
// plus the rendered access chain ("k.mu").
type key struct {
	obj   types.Object
	chain string
}

// lockset is the must-hold fact: the locks held on every path to a point.
type lockset map[key]mode

// recvMarker replaces the receiver's name in summary chains so call sites
// can substitute their own receiver chain.
const recvMarker = "\x00recv"

// effect is a summary entry: what a callee definitely does to one lock.
type effect uint8

const (
	effAcquireR effect = iota + 1
	effAcquireL
	effRelease
)

// summary is a function's net lock effect on receiver-bound or
// package-level mutexes, in terms of recvMarker-relative chains.
type summary map[key]effect

type checker struct {
	pass *analysis.ModulePass
	sums map[*types.Func]summary
}

func run(pass *analysis.ModulePass) error {
	c := &checker{pass: pass, sums: map[*types.Func]summary{}}
	c.buildSummaries()

	for _, fn := range pass.Graph.Functions() {
		fd := pass.Graph.Decl(fn)
		pkg := pass.Graph.PackageOf(fn)
		if pass.Dirs.Has(fn, analysis.DirLocked) {
			continue
		}
		c.checkScope(pkg, fn, fd.Body, analysis.FreshLocals(pkg.Info, fd.Body))
		for _, lit := range cfg.FuncLits(fd.Body) {
			// A closure runs at an arbitrary time: its lockset starts
			// empty, exactly like the lexical analyzer's separate scope.
			c.checkScope(pkg, fn, lit.Body, analysis.FreshLocals(pkg.Info, fd.Body))
		}
	}
	return nil
}

// buildSummaries computes every function's net lock effect, iterating so
// helper-calls-helper chains converge (the module's helper depth is small;
// three rounds reach a fixpoint for any realistic nesting).
func (c *checker) buildSummaries() {
	for round := 0; round < 3; round++ {
		changed := false
		for _, fn := range c.pass.Graph.Functions() {
			s := c.summarize(fn)
			if !summariesEqual(c.sums[fn], s) {
				c.sums[fn] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// summarize computes fn's must-effects: solve the effect dataflow to the
// exit, then apply deferred releases.
func (c *checker) summarize(fn *types.Func) summary {
	fd := c.pass.Graph.Decl(fn)
	pkg := c.pass.Graph.PackageOf(fn)
	recv := receiverName(fd)

	g := cfg.New(fd.Body)
	lat := &effectLattice{c: c, info: pkg.Info}
	in := cfg.Solve[summary](g, summary{}, lat)
	exit, ok := in[g.Exit]
	if !ok {
		return summary{}
	}
	// Deferred unlocks run at exit: they cancel a pending acquire or
	// release a caller-held lock.
	out := summary{}
	for k, e := range exit {
		out[k] = e
	}
	for _, d := range g.Defers {
		if op, ok := analysis.AsLockOp(pkg.Info, d); ok && op.Release() {
			k := key{obj: op.Mutex, chain: op.Chain}
			if _, acquired := out[k]; acquired {
				delete(out, k)
			} else {
				out[k] = effRelease
			}
		}
	}
	// Rebase receiver-rooted chains on the marker; drop chains rooted at
	// other locals (they cannot be translated at call sites).
	rel := summary{}
	for k, e := range out {
		switch {
		case recv != "" && (k.chain == recv || strings.HasPrefix(k.chain, recv+".")):
			rel[key{obj: k.obj, chain: recvMarker + strings.TrimPrefix(k.chain, recv)}] = e
		case isPackageLevel(k.obj):
			rel[k] = e
		}
	}
	return rel
}

// effectLattice tracks must-effects (acquire/release) through a body.
type effectLattice struct {
	c    *checker
	info *types.Info
}

func (l *effectLattice) Join(a, b summary) summary {
	out := summary{}
	for k, e := range a {
		if b[k] == e {
			out[k] = e
		}
	}
	return out
}

func (l *effectLattice) Equal(a, b summary) bool { return summariesEqual(a, b) }

func (l *effectLattice) Transfer(n ast.Node, before summary) summary {
	ops := l.c.opsIn(l.info, n)
	if len(ops) == 0 {
		return before
	}
	out := summary{}
	for k, e := range before {
		out[k] = e
	}
	for _, op := range ops {
		k := key{obj: op.key.obj, chain: op.key.chain}
		switch op.effect {
		case effAcquireL, effAcquireR:
			out[k] = op.effect
		case effRelease:
			if _, acquired := out[k]; acquired && out[k] != effRelease {
				delete(out, k)
			} else {
				out[k] = effRelease
			}
		}
	}
	return out
}

// op is one lock-affecting step inside a node, in execution order.
type op struct {
	key    key
	effect effect
}

// opsIn extracts the lock operations of one CFG node: direct mutex method
// calls plus summarized module calls, with receiver chains substituted.
func (c *checker) opsIn(info *types.Info, n ast.Node) []op {
	var ops []op
	if _, isGo := n.(*ast.GoStmt); isGo {
		// The spawned call runs concurrently; its effects are not ours.
		return nil
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if lockOp, ok := analysis.AsLockOp(info, x); ok {
				switch {
				case lockOp.Kind == "Lock":
					ops = append(ops, op{key{lockOp.Mutex, lockOp.Chain}, effAcquireL})
				case lockOp.Kind == "RLock":
					ops = append(ops, op{key{lockOp.Mutex, lockOp.Chain}, effAcquireR})
				case lockOp.Release():
					ops = append(ops, op{key{lockOp.Mutex, lockOp.Chain}, effRelease})
				}
				return true
			}
			ops = append(ops, c.calleeOps(info, x)...)
		}
		return true
	})
	return ops
}

// calleeOps expands a call's summary into concrete ops at this site.
func (c *checker) calleeOps(info *types.Info, call *ast.CallExpr) []op {
	var callee *types.Func
	var recvChain string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			callee, _ = sel.Obj().(*types.Func)
			recvChain = analysis.RenderChain(fun.X)
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			callee = fn
		}
	}
	if callee == nil {
		return nil
	}
	sum := c.sums[callee]
	if len(sum) == 0 {
		return nil
	}
	var ops []op
	keys := make([]key, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].chain < keys[j].chain })
	for _, k := range keys {
		chain := k.chain
		if strings.HasPrefix(chain, recvMarker) {
			if recvChain == "" {
				continue
			}
			chain = recvChain + strings.TrimPrefix(chain, recvMarker)
		}
		ops = append(ops, op{key{k.obj, chain}, sum[k]})
	}
	return ops
}

// locksetLattice is the checking-phase must-hold analysis, built on the
// same per-node ops.
type locksetLattice struct {
	c    *checker
	info *types.Info
}

func (l *locksetLattice) Join(a, b lockset) lockset {
	out := lockset{}
	for k, m := range a {
		if bm, ok := b[k]; ok {
			if bm < m {
				m = bm // weaker of the two (RLock)
			}
			out[k] = m
		}
	}
	return out
}

func (l *locksetLattice) Equal(a, b lockset) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		if b[k] != m {
			return false
		}
	}
	return true
}

func (l *locksetLattice) Transfer(n ast.Node, before lockset) lockset {
	ops := l.c.opsIn(l.info, n)
	if len(ops) == 0 {
		return before
	}
	out := lockset{}
	for k, m := range before {
		out[k] = m
	}
	for _, o := range ops {
		switch o.effect {
		case effAcquireL:
			out[o.key] = modeL
		case effAcquireR:
			out[o.key] = modeR
		case effRelease:
			delete(out, o.key)
		}
	}
	return out
}

// checkScope analyzes one body (function or closure) and reports guarded
// accesses whose mutex is not definitely held.
func (c *checker) checkScope(pkg *analysis.Package, fn *types.Func, body *ast.BlockStmt, fresh map[types.Object]bool) {
	g := cfg.New(body)
	lat := &locksetLattice{c: c, info: pkg.Info}
	in := cfg.Solve[lockset](g, lockset{}, lat)

	for _, blk := range g.Blocks {
		blockIn, reachable := in[blk]
		if !reachable {
			continue
		}
		fact := blockIn
		for _, n := range blk.Nodes {
			for _, acc := range c.accessesIn(pkg, n, fresh) {
				held, ok := fact[acc.key]
				switch {
				case !ok:
					c.pass.Reportf(acc.pos, "%s of %s in %s: %s is not held on every path to this point (field is guarded by %s)",
						verb(acc.write), acc.field.Name(), fn.Name(), acc.key.chain, acc.guard)
				case held == modeR && acc.write:
					c.pass.Reportf(acc.pos, "write of %s in %s under %s.RLock: writes need the exclusive Lock",
						acc.field.Name(), fn.Name(), acc.key.chain)
				}
			}
			fact = lat.Transfer(n, fact)
		}
	}
}

// access is one guarded-field use inside a node.
type access struct {
	key   key
	field types.Object
	guard string
	write bool
	pos   token.Pos
}

// accessesIn finds guarded-field selector uses within one CFG node,
// skipping closures (their own scope) and fresh locals.
func (c *checker) accessesIn(pkg *analysis.Package, n ast.Node, fresh map[types.Object]bool) []access {
	var out []access
	var stack []ast.Node
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, x)
		if _, ok := x.(*ast.FuncLit); ok {
			stack = stack[:len(stack)-1]
			return false
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field := pkg.Info.Uses[sel.Sel]
		if field == nil {
			return true
		}
		guardObj, ok := c.pass.Dirs.GuardObjOf(field)
		if !ok {
			return true
		}
		base := sel.X
		if root := analysis.RootIdent(base); root != nil {
			if obj := pkg.Info.Uses[root]; obj != nil && fresh[obj] {
				return true
			}
		}
		baseChain := analysis.RenderChain(base)
		if baseChain == "" {
			return true
		}
		guardName, _ := c.pass.Dirs.GuardOf(field)
		out = append(out, access{
			key:   key{obj: guardObj, chain: baseChain + "." + guardName},
			field: field,
			guard: guardName,
			write: analysis.IsWrite(stack, sel),
			pos:   sel.Sel.Pos(),
		})
		return true
	})
	return out
}

func verb(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

func isPackageLevel(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Parent() == obj.Pkg().Scope()
}

func summariesEqual(a, b summary) bool {
	if len(a) != len(b) {
		return false
	}
	for k, e := range a {
		if b[k] != e {
			return false
		}
	}
	return true
}
