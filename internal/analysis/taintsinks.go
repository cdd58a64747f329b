package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the sink side of the taint engine (taint.go): turning a
// function's converged environment into its summary (return tags +
// parameter-to-state sinks) and recording host-taint flows for the
// hosttaint analyzer. A "state store" is an assignment whose target
// chain ends in a field of a struct declared in a scoped simulation
// package (or a scoped package-level var), reached through memory the
// caller can see — a receiver, pointer parameter, package var, or a
// local aliasing one of those. Chains passing through a field or var
// classified cryptojack:hostonly or cryptojack:immutable are exempt:
// host-side handles are the one legitimate destination for host data,
// and immutable tables are never stored to after construction (writes
// to them would themselves be diagnostics once classified).

// summarize recomputes f's summary against the current environments and
// reports whether it grew. When flows is non-nil (the final extraction
// pass) host-taint diagnostics are appended to it.
func (t *Tainter) summarize(f *taintFn, flows *[]hostFlow) bool {
	sum := t.sums[f.fn]
	changed := false

	for _, ev := range f.rets {
		var vt valTags
		if ev.expr != nil {
			vt = t.eval(f, ev.expr)
		} else if ev.obj != nil {
			vt = t.readChain(f, ev.obj, "")
		}
		for q, ts := range vt {
			if mergeVTInto(sum.Ret, q, ts) {
				changed = true
			}
		}
	}

	for _, ev := range f.assigns {
		if t.storeSinks(f, ev, sum, flows) {
			changed = true
		}
	}

	for _, ev := range f.calls {
		if t.applyCalleeSinks(f, ev.call, sum, flows) {
			changed = true
		}
	}
	return changed
}

func mergeVTInto(dst valTags, path string, ts TagSet) bool {
	set := dst[path]
	if set == nil {
		set = TagSet{}
		dst[path] = set
	}
	changed := false
	for tag := range ts {
		if !set[tag] {
			set[tag] = true
			changed = true
		}
	}
	return changed
}

// storeSinks classifies one assignment as a state store and records
// parameter/global sinks (and, on the final pass, host-taint flows).
func (t *Tainter) storeSinks(f *taintFn, ev assignEv, sum *TaintSummary, flows *[]hostFlow) bool {
	lhs, _ := stripIndexing(f, ev.lhs)
	root, fields, ok := t.chainFields(f, lhs)
	if !ok || root == nil {
		return false
	}

	// Destination: the deepest field declared in a scoped package, or a
	// scoped package-level var for bare-var stores.
	base := -1
	for i, fld := range fields {
		if fld.Pkg() != nil && InScope(t.scope, fld.Pkg().Path()) {
			base = i
		}
	}
	var dest types.Object
	if base >= 0 {
		dest = fields[base]
	} else if len(fields) == 0 && isPackageVar(root) && root.Pkg() != nil && InScope(t.scope, root.Pkg().Path()) {
		dest = root
	} else {
		return false
	}

	// Host-side pruning: a hostonly/immutable link anywhere on the chain
	// exempts the whole store.
	if t.mp.Dirs.HostSide(root) {
		return false
	}
	for _, fld := range fields {
		if t.mp.Dirs.HostSide(fld) {
			return false
		}
	}

	if !t.storeEscapes(f, root, fields) {
		return false
	}

	destParam := destParamOf(f, root)

	vt := t.eval(f, ev.rhs)
	changed := false
	for _, q := range sortedPaths(vt) {
		ts := vt[q]
		final, ok := t.navigateDest(dest, q)
		if !ok {
			continue
		}
		for tag := range ts {
			switch tag.Kind {
			case TagParam:
				sink := TaintSink{Param: tag.Param, Path: tag.Path, Field: final, VType: final.Type(), DestParam: destParam}
				if !sum.Sinks[sink] {
					sum.Sinks[sink] = true
					changed = true
				}
			case TagGlobal:
				if t.mp.Dirs.HostSide(tag.Obj) {
					continue
				}
				sink := TaintSink{Param: -1, Field: final, VType: final.Type(), Global: tag.Obj, DestParam: destParam}
				if !sum.Sinks[sink] {
					sum.Sinks[sink] = true
					changed = true
				}
			case TagSource:
				if flows != nil {
					*flows = append(*flows, hostFlow{pos: ev.pos, sources: []string{tag.Source}, dest: final})
				}
			default: // TagAlloc: fresh identity, not a cross-boundary sink
			}
		}
	}
	return changed
}

// applyCalleeSinks composes the sinks of every resolved callee at call
// into f's own summary (param tags of arguments) and, on the final
// pass, reports host-tainted arguments feeding callee state stores.
func (t *Tainter) applyCalleeSinks(f *taintFn, call *ast.CallExpr, sum *TaintSummary, flows *[]hostFlow) bool {
	callees := f.callees[call.Pos()]
	changed := false
	for _, callee := range callees {
		csum := t.sums[callee]
		if csum == nil {
			continue
		}
		for _, sink := range sortedSinks(csum.Sinks) {
			if sink.Param < 0 {
				continue // global-sourced: already context-independent
			}
			destParam := sink.DestParam
			if destParam >= 0 {
				destParam = t.translateDest(f, call, callee, destParam)
			}
			for _, arg := range argExprs(f, call, callee, sink.Param) {
				ts := t.EvalAtLocal(f, arg, sink.Path)
				for tag := range ts {
					switch tag.Kind {
					case TagParam:
						s := TaintSink{Param: tag.Param, Path: tag.Path, Field: sink.Field, VType: sink.VType, DestParam: destParam}
						if !sum.Sinks[s] {
							sum.Sinks[s] = true
							changed = true
						}
					case TagGlobal:
						if t.mp.Dirs.HostSide(tag.Obj) {
							continue
						}
						s := TaintSink{Param: -1, Field: sink.Field, VType: sink.VType, Global: tag.Obj, DestParam: destParam}
						if !sum.Sinks[s] {
							sum.Sinks[s] = true
							changed = true
						}
					case TagSource:
						if flows != nil {
							*flows = append(*flows, hostFlow{pos: call.Pos(), sources: []string{tag.Source}, dest: sink.Field, via: callee})
						}
					default: // TagAlloc: fresh identity, not a cross-boundary sink
					}
				}
			}
		}
	}
	return changed
}

// storeEscapes reports whether a store through (root, fields) lands in
// memory the caller can observe: package vars always; parameters and
// aliases of caller data only when the chain actually dereferences a
// pointer-like link (a store into a value-typed local copy stays
// local).
func (t *Tainter) storeEscapes(f *taintFn, root types.Object, fields []*types.Var) bool {
	if isPackageVar(root) {
		return true
	}
	refPrefix := isRefType(root.Type())
	for i := 0; i < len(fields)-1; i++ {
		if isRefType(fields[i].Type()) {
			refPrefix = true
		}
	}
	if !refPrefix {
		return false
	}
	for tag := range readVT(t.readChain(f, root, ""), "") {
		if tag.Kind == TagParam || tag.Kind == TagGlobal {
			return true
		}
	}
	return false
}

// destParamOf maps the root object of a store chain to a DestParam
// value: parameter index, -1 for package vars, -2 for locals.
func destParamOf(f *taintFn, root types.Object) int {
	for i, p := range f.params {
		if root == p {
			return i
		}
	}
	if isPackageVar(root) {
		return -1
	}
	return -2
}

// translateDest maps a callee sink's destination parameter to the
// caller's frame: the caller parameter (or package var) rooting the
// argument passed for it, or -2 when the argument is caller-local.
func (t *Tainter) translateDest(f *taintFn, call *ast.CallExpr, callee *types.Func, destParam int) int {
	for _, arg := range argExprs(f, call, callee, destParam) {
		root, _, ok := t.chainFields(f, arg)
		if !ok || root == nil {
			continue
		}
		return destParamOf(f, root)
	}
	return -2
}

// chainFields resolves a pure chain to its root object plus the field
// objects along it, outermost last.
func (t *Tainter) chainFields(f *taintFn, e ast.Expr) (types.Object, []*types.Var, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := f.defOrUse(e)
		if obj == nil {
			return nil, nil, false
		}
		return obj, nil, true
	case *ast.StarExpr:
		return t.chainFields(f, e.X)
	case *ast.SelectorExpr:
		if sel, ok := f.pkg.Info.Selections[e]; ok {
			if sel.Kind() != types.FieldVal {
				return nil, nil, false
			}
			fld, ok := sel.Obj().(*types.Var)
			if !ok {
				return nil, nil, false
			}
			root, fields, ok := t.chainFields(f, e.X)
			if !ok {
				return nil, nil, false
			}
			return root, append(fields, fld), true
		}
		if obj, ok := f.pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return obj, nil, true
		}
		return nil, nil, false
	}
	return nil, nil, false
}

// navigateDest walks relative path q from field (or var) base, returning
// the final destination field. Chains passing a hostonly/immutable field
// resolve to not-ok; unresolvable segments stop at the last resolved
// field (conservative).
func (t *Tainter) navigateDest(base types.Object, q string) (types.Object, bool) {
	cur := base
	if q == "" {
		return cur, !t.mp.Dirs.HostSide(cur)
	}
	if t.mp.Dirs.HostSide(cur) {
		return nil, false
	}
	typ := cur.Type()
	for _, seg := range strings.Split(q[1:], ".") {
		fld := lookupField(typ, seg)
		if fld == nil {
			return cur, true
		}
		if t.mp.Dirs.HostSide(fld) {
			return nil, false
		}
		cur = fld
		typ = fld.Type()
	}
	return cur, true
}

// FieldByName finds the struct field named seg on t, unwrapping
// pointers, slices, arrays, maps, and channels first; nil if t has no
// such field. sharecheck uses it to resolve return-path destinations.
func FieldByName(t types.Type, seg string) *types.Var { return lookupField(t, seg) }

// lookupField finds the struct field named seg on t, unwrapping
// pointers, slices, arrays, maps, and channels first.
func lookupField(t types.Type, seg string) *types.Var {
	for {
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
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return nil
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == seg {
					return st.Field(i)
				}
			}
			return nil
		}
	}
}

func sortedPaths(vt valTags) []string {
	out := make([]string, 0, len(vt))
	for q := range vt {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// SortedSinks returns a summary's sink set in deterministic order, for
// consumers (sharecheck) that iterate and report.
func SortedSinks(sinks map[TaintSink]bool) []TaintSink { return sortedSinks(sinks) }

func sortedSinks(sinks map[TaintSink]bool) []TaintSink {
	out := make([]TaintSink, 0, len(sinks))
	for s := range sinks {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Param != b.Param {
			return a.Param < b.Param
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		an, bn := objName(a.Field), objName(b.Field)
		if an != bn {
			return an < bn
		}
		if gn, hn := objName(a.Global), objName(b.Global); gn != hn {
			return gn < hn
		}
		return a.DestParam < b.DestParam
	})
	return out
}

func objName(obj types.Object) string {
	if obj == nil {
		return ""
	}
	name := obj.Name()
	if obj.Pkg() != nil {
		name = obj.Pkg().Path() + "." + name
	}
	return name
}

// StateDest renders a destination field or var for diagnostics:
// pkg.Type.field for struct fields with a known owner, pkg.name
// otherwise.
func (t *Tainter) StateDest(obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	if owner, ok := t.mp.Dirs.fieldOwner[obj]; ok {
		return pkg + owner.Name() + "." + obj.Name()
	}
	return pkg + obj.Name()
}

// ReportHostFlows emits the hosttaint diagnostics accumulated by the
// final extraction pass, deduplicated per (position, destination,
// callee) with source descriptions merged and sorted.
func (t *Tainter) ReportHostFlows(report func(pos token.Pos, format string, args ...any)) {
	type key struct {
		pos  token.Pos
		dest types.Object
		via  *types.Func
	}
	merged := map[key]map[string]bool{}
	var order []key
	for _, fl := range t.flows {
		k := key{pos: fl.pos, dest: fl.dest, via: fl.via}
		if merged[k] == nil {
			merged[k] = map[string]bool{}
			order = append(order, k)
		}
		for _, s := range fl.sources {
			merged[k][s] = true
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if an, bn := objName(a.dest), objName(b.dest); an != bn {
			return an < bn
		}
		return funcName(a.via) < funcName(b.via)
	})
	for _, k := range order {
		sources := make([]string, 0, len(merged[k]))
		for s := range merged[k] {
			sources = append(sources, s)
		}
		sort.Strings(sources)
		if k.via != nil {
			report(k.pos, "host-nondeterministic value (%s) flows into simulation state %s via %s",
				strings.Join(sources, ", "), t.StateDest(k.dest), funcName(k.via))
		} else {
			report(k.pos, "host-nondeterministic value (%s) flows into simulation state %s",
				strings.Join(sources, ", "), t.StateDest(k.dest))
		}
	}
}

func funcName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil {
				return fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// namedOf unwraps pointers to the named type, if any.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
