package analyzers

import (
	"go/ast"
	"go/types"
)

// CycleBoundary enforces the mutation discipline of the broadcast
// program: state swaps may only happen at data-cycle boundaries, which
// in this codebase means they are reachable only through the admission
// seams. Methods annotated //pinlint:cycle-boundary (Station.rebuild,
// the one builder every file-set change goes through, and the
// Station.build and Station.stage it calls, Cluster.reRegisterLocked,
// ...) may be called only from
//
//   - functions that are themselves annotated //pinlint:cycle-boundary,
//     or
//   - the fixed seam set: Admit, Evict, Negotiate, AdmitTxn,
//     ReleaseTxn, Release, FailChannel, and the constructors New and
//     NewCluster.
//
// The slot-serving goroutine is deliberately neither, so a refactor
// that calls a mutator from the serve loop is rejected mechanically.
// Annotations are resolved module-wide, so cross-package calls are
// covered.
var CycleBoundary = &Analyzer{
	Name: "cycleboundary",
	Doc:  "restrict //pinlint:cycle-boundary mutators to the admission seams",
	Run:  runCycleBoundary,
}

// cycleSeams are the function names allowed to invoke cycle-boundary
// mutators without carrying the annotation themselves: the public
// admission/negotiation/failover seams and the constructors.
var cycleSeams = map[string]bool{
	"Admit":       true,
	"Evict":       true,
	"Negotiate":   true,
	"AdmitTxn":    true,
	"ReleaseTxn":  true,
	"Release":     true,
	"FailChannel": true,
	"New":         true,
	"NewCluster":  true,
}

func runCycleBoundary(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if pass.Index.Has(caller, "cycle-boundary") || cycleSeams[caller.Name()] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.TypesInfo, call)
				if callee == nil || !pass.Index.Has(callee, "cycle-boundary") {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s calls cycle-boundary mutator %s; program state may only change through the admission seams (Admit/Evict/Negotiate/AdmitTxn/ReleaseTxn/Release/FailChannel)",
					caller.Name(), callee.Name())
				return true
			})
		}
	}
	return nil
}
