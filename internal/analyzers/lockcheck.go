package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck enforces `guarded by` field comments: a struct field
// documented
//
//	gen *generation // guarded by mu
//
// may only be accessed while the named sibling mutex is held. The
// analysis runs the shared lockflow dataflow (lockflow.go) over the
// function's CFG: a must-analysis that merges branches by
// intersection, so a conditionally taken lock does not count, and
// iterates loops to a fixed point, so a lock released inside a loop
// body does not leak into the next iteration.
//
// Escape hatches, in keeping with the codebase's conventions:
//
//   - functions annotated //pinlint:holds <mu> assert their caller
//     holds <mu> (the `xxxLocked` name-suffix convention asserts the
//     same for every mutex);
//   - accesses through a receiver or local that the function itself
//     just constructed (s := &Station{...}) are exempt — the value is
//     not yet shared;
//   - a deferred Unlock keeps the lock held to the end of the
//     function, as it does dynamically.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "check that `guarded by mu` fields are accessed with the mutex held",
	Run:  runLockCheck,
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

func runLockCheck(pass *Pass) error {
	guards := guardedFields(pass)
	if len(guards) == 0 {
		return nil
	}
	for fd, fn := range funcDecls(pass.Files, pass.TypesInfo) {
		w := &lockChecker{
			pass:    pass,
			guards:  guards,
			trusted: trustedMutexes(pass, fn),
			local:   locallyConstructed(pass, fd.Body),
		}
		w.checkBody(fd.Body)
		// Closures may run at any time; their bodies are analyzed
		// lock-free (deferred closures are skipped — they run under
		// unknown state).
		for _, lit := range funcLits(fd.Body) {
			w.checkBody(lit.Body)
		}
	}
	return nil
}

// guardedFields maps struct field objects to the name of the sibling
// mutex that guards them, from `guarded by <mu>` field comments.
func guardedFields(pass *Pass) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardName(field.Doc)
				if mu == "" {
					mu = guardName(field.Comment)
				}
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardName(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
		return m[1]
	}
	return ""
}

// trustedMutexes returns the mutex names the function asserts are held
// by its caller: the //pinlint:holds argument, or every mutex ("*")
// for the xxxLocked naming convention.
func trustedMutexes(pass *Pass, fn *types.Func) map[string]bool {
	trusted := map[string]bool{}
	if strings.HasSuffix(fn.Name(), "Locked") {
		trusted["*"] = true
	}
	if arg := pass.Index.Arg(fn, "holds"); arg != "" {
		for _, mu := range strings.Fields(arg) {
			trusted[mu] = true
		}
	}
	return trusted
}

// locallyConstructed collects objects assigned a fresh composite
// literal or new(T) in this function: values not yet visible to other
// goroutines, whose guarded fields may be touched lock-free.
func locallyConstructed(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	local := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if !isFreshValue(pass, rhs) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					local[obj] = true
				}
			}
		}
		return true
	})
	return local
}

func isFreshValue(pass *Pass, e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := e.X.(*ast.CompositeLit)
		return e.Op.String() == "&" && lit
	case *ast.CallExpr:
		if id, ok := unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
				return true
			}
		}
	}
	return false
}

// lockChecker carries one function's analysis context.
type lockChecker struct {
	pass    *Pass
	guards  map[types.Object]string
	trusted map[string]bool
	local   map[types.Object]bool
}

// checkBody runs the lockflow dataflow over one body and reports
// guarded accesses outside their mutex's held region.
func (w *lockChecker) checkBody(body *ast.BlockStmt) {
	lockFlow(w.pass.TypesInfo, body, lockState{}, lockHooks{access: w.checkAccess})
}

// checkAccess flags a guarded field access without its mutex held.
func (w *lockChecker) checkAccess(sel *ast.SelectorExpr, held lockState) {
	obj := w.pass.TypesInfo.Uses[sel.Sel]
	mu, guarded := w.guards[obj]
	if !guarded {
		return
	}
	if w.trusted["*"] || w.trusted[mu] {
		return
	}
	base := unparen(sel.X)
	if id, ok := base.(*ast.Ident); ok {
		if w.local[w.pass.TypesInfo.ObjectOf(id)] {
			return // freshly constructed, not yet shared
		}
	}
	if _, ok := held[exprKey(base)+"."+mu]; ok {
		return
	}
	w.pass.Reportf(sel.Sel.Pos(), "access to %s (guarded by %s) without %s held", sel.Sel.Name, mu, mu)
}

// exprKey renders the base of a selector chain into a comparison key:
// "st", "c.stations[]", "call()". Indexes are erased, so distinct
// elements of one container share a key — conservative in the
// direction of trusting a lock taken on the same chain.
func exprKey(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[]"
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		return exprKey(e.X)
	case *ast.CallExpr:
		return "call()"
	default:
		return "?"
	}
}
