package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the AST helpers shared by the lock analyzers
// (locksetflow, lockorder): mutex-operation recognition,
// selector-chain rendering, write detection, and the fresh-local escape
// exemption.

// LockOp is one recognized mutex method call: <chain>.Lock(),
// <chain>.RLock(), and friends, where the receiver's type is sync.Mutex
// or sync.RWMutex.
type LockOp struct {
	// Mutex is the field or variable object of the mutex itself — the
	// instance-insensitive identity used across functions (every `k.mu`
	// of every Kernel is the same object).
	Mutex types.Object
	// Chain is the rendered receiver chain ("k.mu"), the
	// instance-sensitive identity used within one function.
	Chain string
	// Kind is Lock, RLock, Unlock, RUnlock, TryLock, or TryRLock.
	Kind string
	Pos  token.Pos
}

// Exclusive reports whether the op acquires or requires the write lock.
func (op LockOp) Exclusive() bool { return op.Kind == "Lock" || op.Kind == "TryLock" }

// Acquire reports whether the op acquires (Lock/RLock; try variants are
// never treated as acquisitions because they may fail).
func (op LockOp) Acquire() bool { return op.Kind == "Lock" || op.Kind == "RLock" }

// Release reports whether the op releases.
func (op LockOp) Release() bool { return op.Kind == "Unlock" || op.Kind == "RUnlock" }

// AsLockOp recognizes n (a CallExpr, or a statement wrapping one) as a
// mutex method call and resolves the mutex's object identity.
func AsLockOp(info *types.Info, n ast.Node) (LockOp, bool) {
	var call *ast.CallExpr
	switch n := n.(type) {
	case *ast.CallExpr:
		call = n
	case *ast.ExprStmt:
		call, _ = n.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = n.Call
	}
	if call == nil {
		return LockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	kind := sel.Sel.Name
	switch kind {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return LockOp{}, false
	}
	obj := chainObject(info, sel.X)
	if obj == nil || !isMutexType(obj.Type()) {
		return LockOp{}, false
	}
	chain := RenderChain(sel.X)
	if chain == "" {
		return LockOp{}, false
	}
	return LockOp{Mutex: obj, Chain: chain, Kind: kind, Pos: call.Pos()}, true
}

// chainObject returns the object of the final selector/ident in a chain
// ("k.mu" → the mu field object), or nil for impure chains.
func chainObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.StarExpr:
		return chainObject(info, e.X)
	}
	return nil
}

// isMutexType reports whether t (possibly a pointer) is sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// RenderChain renders a pure ident/selector chain ("p.k"); impure bases
// (calls, indexing) render empty and are skipped by the lock analyzers.
func RenderChain(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := RenderChain(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return RenderChain(x.X)
	case *ast.StarExpr:
		return RenderChain(x.X)
	}
	return ""
}

// RootIdent returns the leftmost identifier of a selector chain.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// IsWrite reports whether the selector (or an index/slice of it) is a
// store target, an inc/dec operand, or has its address taken. stack is
// the ancestor chain from the traversal root down to sel.
func IsWrite(stack []ast.Node, sel *ast.SelectorExpr) bool {
	var cur ast.Expr = sel
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.IndexExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.SliceExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.StarExpr:
			cur = p
		case *ast.UnaryExpr:
			return p.Op == token.AND
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == cur
		default:
			return false
		}
	}
	return false
}

// FreshLocals returns objects bound in body to values constructed there
// (composite literals and new calls), which cannot be shared yet; lock
// checking exempts accesses through them.
func FreshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range assign.Lhs {
			if i >= len(assign.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil && constructsValue(info, assign.Rhs[i]) {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// constructsValue reports whether e evaluates to a freshly allocated value.
func constructsValue(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}
