package analyzers

import (
	"go/ast"
	"go/types"
)

// GoroLeak flags `go` statements that spawn a goroutine with no
// termination path tied to a context.Context, a stop channel, or a
// sync.WaitGroup visible in the CFG — the coordinator equivalent of a
// fault the system cannot repair: a wedged serve loop holds its
// resources forever and silently voids the latency contracts.
//
// A spawned body is accepted when any of the following holds:
//
//   - its CFG is acyclic: with no loop, the goroutine runs to
//     completion (calls are trusted to return);
//   - it registers with a sync.WaitGroup (a wg.Done() call, deferred
//     or not): its lifetime is joined by the owner's Wait;
//   - some reachable gate — a channel receive or send, a select comm,
//     a range over a channel, a context.Done/Err/Deadline call, a call
//     that is handed a context, channel, or *sync.WaitGroup, or a
//     dynamic interface-method call (a net.Listener's Accept
//     terminates by Close; the analyzer cannot see through dynamic
//     dispatch and trusts it) — can still reach the exit block.
//
// For `go f(...)` on a named function, a context/channel/WaitGroup
// argument or parameter ties the goroutine's lifetime to the caller
// and is accepted; otherwise the body is analyzed when its
// declaration is in the same package, and flagged when it is not
// (annotate the spawn site with //pinlint:allow goroleak and a
// justification if the callee provably stops).
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "flag goroutines with no visible termination path (context, stop channel, or WaitGroup)",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	for fd, fn := range funcDecls(pass.Files, pass.TypesInfo) {
		decls[fn] = fd
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineStoppable(pass, g, decls) {
				pass.Reportf(g.Pos(), "goroutine has no termination path tied to a context, stop channel, or WaitGroup")
			}
			return true
		})
	}
	return nil
}

func goroutineStoppable(pass *Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) bool {
	// A lifetime-tying argument excuses any spawn: the callee was
	// handed the means to stop.
	for _, arg := range g.Call.Args {
		if isLifetimeType(pass.TypesInfo.TypeOf(arg)) {
			return true
		}
	}
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return bodyStoppable(pass, lit.Body)
	}
	callee := calleeFunc(pass.TypesInfo, g.Call)
	if callee == nil {
		// Dynamic function value: unresolvable, trust the indirection
		// only if some argument tied the lifetime (checked above).
		return false
	}
	sig := callee.Signature()
	for i := 0; i < sig.Params().Len(); i++ {
		if isLifetimeType(sig.Params().At(i).Type()) {
			return true
		}
	}
	if fd, ok := decls[callee]; ok {
		return bodyStoppable(pass, fd.Body)
	}
	return false
}

// bodyStoppable applies the CFG test to one spawned body.
func bodyStoppable(pass *Pass, body *ast.BlockStmt) bool {
	if usesWaitGroup(pass, body) {
		return true
	}
	g := NewCFG(body)
	if !g.HasCycle() {
		return true
	}
	reached := g.Reachable(g.Entry)
	for b := range reached {
		for _, n := range b.Nodes {
			if !nodeIsGate(pass, n) {
				continue
			}
			if g.Reachable(b)[g.Exit] {
				return true
			}
		}
	}
	return false
}

// usesWaitGroup reports whether the body calls Done on a
// sync.WaitGroup (deferred or inline).
func usesWaitGroup(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Name() == "Done" &&
			fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			found = true
		}
		return true
	})
	return found
}

// nodeIsGate reports whether one CFG node contains a construct that
// ties the goroutine's progress to the outside world.
func nodeIsGate(pass *Pass, n ast.Node) bool {
	// A bare expression node of channel type is a range-over-channel
	// head (conditions are bool, range heads are the only bare exprs
	// of channel type the builder emits).
	if e, ok := n.(ast.Expr); ok {
		if t := pass.TypesInfo.TypeOf(e); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return true
			}
		}
	}
	gate := false
	ast.Inspect(n, func(n ast.Node) bool {
		if gate {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			gate = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				gate = true
			}
		case *ast.CallExpr:
			gate = callIsGate(pass, n)
		}
		return true
	})
	return gate
}

// callIsGate classifies calls: context accessors, calls handed a
// lifetime value, and dynamic interface dispatch all count as gates.
func callIsGate(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isLifetimeType(pass.TypesInfo.TypeOf(arg)) {
			return true
		}
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		// Calling a function value: if it was handed nothing, it
		// cannot stop us; not a gate.
		return false
	}
	if recv := fn.Signature().Recv(); recv != nil {
		if _, ok := recv.Type().Underlying().(*types.Interface); ok {
			return true // dynamic dispatch: trusted
		}
		if isContextType(recv.Type()) {
			switch fn.Name() {
			case "Done", "Err", "Deadline":
				return true
			}
		}
	}
	return false
}

// isLifetimeType reports whether t is a value whose possession ties a
// goroutine's lifetime to its owner: a context.Context, any channel,
// or a *sync.WaitGroup.
func isLifetimeType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if isContextType(t) {
		return true
	}
	if named, ok := derefType(t).(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := derefType(t).(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
