package analyzers

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural layer: a module-wide call graph
// built from the loader's typed ASTs. The intra-procedural analyzers
// see one function at a time; the protocol analyzers (chansafe,
// cancelflow) need to know who calls whom — including through `go`,
// `defer`, and dynamic interface dispatch — before they can reason
// about channel ownership or cancellation gates across function
// boundaries. The graph is built once per load and cached on the
// Index, like lockorder's acquisition graph.
//
// Cross-package identity: each package is type-checked from source
// with dependencies imported from export data, so the *types.Func for
// a function differs between the package that declares it and the
// packages that import it. Nodes are therefore keyed by FuncKey, which
// is stable across both views.

// A cgNode is one function declaration in the module.
type cgNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out are the node's call sites in source order; In are the sites
	// that may call it.
	Out []*callSite
	In  []*callSite
}

// A callSite is one call expression inside a caller, with its resolved
// module-internal targets.
type callSite struct {
	Caller *cgNode
	Call   *ast.CallExpr
	// Callees are the possible targets declared in the module: exactly
	// one for a static call, every satisfying method for dynamic
	// interface dispatch, none for calls leaving the module or calls of
	// opaque function values.
	Callees []*cgNode
	// Go and Defer mark `go f()` and `defer f()` sites; InLit marks
	// calls syntactically inside a function literal of the caller (the
	// literal runs at an unknown time, possibly on another goroutine).
	Go, Defer, InLit bool
	// Dynamic marks calls not resolved statically: interface dispatch
	// (Callees lists the implementations) or a bare function value
	// (Callees empty).
	Dynamic bool
}

// A callGraph spans every function declaration of the loaded module.
type callGraph struct {
	nodes []*cgNode
	byKey map[string]*cgNode
	// named are the module's named (non-alias) types, for resolving
	// interface dispatch to the implementations that exist here.
	named []*types.Named
}

// callGraph builds (once) the module call graph over every loaded
// package.
func (ix *Index) callGraph() *callGraph {
	if ix.cg != nil {
		return ix.cg
	}
	g := &callGraph{byKey: map[string]*cgNode{}}
	for _, pkg := range ix.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &cgNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.nodes = append(g.nodes, n)
				g.byKey[FuncKey(fn)] = n
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.named = append(g.named, named)
			}
		}
	}
	for _, n := range g.nodes {
		if n.Decl.Body != nil {
			g.collectCalls(n)
		}
	}
	ix.cg = g
	return g
}

// collectCalls records every call expression in n's body as an
// outgoing site, resolving targets through the graph.
func (g *callGraph) collectCalls(n *cgNode) {
	body := n.Decl.Body
	// Pre-pass: which CallExprs are go/defer statements, and which
	// source ranges belong to function literals.
	goCalls := map[*ast.CallExpr]bool{}
	deferCalls := map[*ast.CallExpr]bool{}
	type span struct{ lo, hi int }
	var lits []span
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			goCalls[x.Call] = true
		case *ast.DeferStmt:
			deferCalls[x.Call] = true
		case *ast.FuncLit:
			lits = append(lits, span{int(x.Body.Pos()), int(x.Body.End())})
		}
		return true
	})
	inLit := func(pos int) bool {
		for _, s := range lits {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}
	info := n.Pkg.TypesInfo
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := unparen(call.Fun)
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		if id, ok := fun.(*ast.Ident); ok {
			if _, ok := info.Uses[id].(*types.Builtin); ok {
				return true
			}
		}
		site := &callSite{
			Caller: n,
			Call:   call,
			Go:     goCalls[call],
			Defer:  deferCalls[call],
			InLit:  inLit(int(call.Pos())),
		}
		switch fn := calleeFunc(info, call); {
		case fn == nil:
			site.Dynamic = true // opaque function value
		case isInterfaceMethod(fn):
			site.Dynamic = true
			site.Callees = g.implementations(fn)
		default:
			if node := g.byKey[FuncKey(fn)]; node != nil {
				site.Callees = []*cgNode{node}
			}
		}
		n.Out = append(n.Out, site)
		for _, c := range site.Callees {
			c.In = append(c.In, site)
		}
		return true
	})
}

// isInterfaceMethod reports whether fn is declared on an interface, so
// a call of it dispatches dynamically.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	_, ok := recv.Type().Underlying().(*types.Interface)
	return ok
}

// implementations resolves an interface method to the module-declared
// methods that can satisfy the dispatch: for every module named type
// whose method set (value or pointer) implements the interface, the
// concrete method of the same name.
func (g *callGraph) implementations(fn *types.Func) []*cgNode {
	recv := fn.Signature().Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*cgNode
	for _, named := range g.named {
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := g.byKey[FuncKey(m)]; node != nil {
			out = append(out, node)
		}
	}
	return out
}
