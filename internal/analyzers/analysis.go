// Package analyzers implements pinlint: a suite of static analyzers
// that mechanically enforce the codebase's performance and correctness
// invariants — zero-allocation hot paths (the compiler's own escape
// analysis, closed over the call graph), injected randomness,
// mutex-guarded field access, deadlock-free lock ordering, stoppable
// goroutines, cycle-boundary-only mutation, sentinel-error wrapping
// discipline, the channel close/ownership protocol, cancellation gates
// on every blocking path out of a long-running entry point, checked
// schedule-quantity arithmetic, and an honest waiver inventory. The
// flow-sensitive analyzers share the intra-procedural CFG/dataflow
// layer in cfg.go; the interprocedural ones (chansafe, cancelflow)
// share the module call graph in callgraph.go (static resolution plus
// interface-satisfaction dynamic dispatch) and the generic bottom-up
// function-summary fixpoint in summary.go.
//
// The package mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic) on the standard library alone, so the
// module stays dependency-free and the analyzers can later be ported to
// the real driver mechanically. Packages are loaded by shelling out to
// `go list -export` and type-checking target packages from source with
// dependencies imported from compiler export data — the same strategy
// `go vet` uses.
//
// # Annotations
//
// Analyzers are driven by machine-readable comments:
//
//	//pinlint:hotpath        — nothing in the function may escape to
//	                           the heap, and it may only call other
//	                           hotpath functions within the module
//	                           (see hotpath.go for exact rules)
//	//pinlint:cycle-boundary — function mutates broadcast-program state
//	                           and may only be called from the admission
//	                           seams (Admit/Evict/Negotiate/AdmitTxn/
//	                           ReleaseTxn/Release/FailChannel/New/
//	                           NewCluster) or other annotated functions
//	//pinlint:holds mu       — function asserts its caller holds the
//	                           named mutex (lockcheck trusts it); the
//	                           `xxxLocked` name suffix implies the same
//	//pinlint:allow <names>  — suppress the named analyzers (or all,
//	                           when no names are given) on this line;
//	                           use sparingly, with a justification in
//	                           the trailing text
//
// Struct fields documented with a `guarded by <mutex>` comment are
// checked by lockcheck: every access must happen with the named sibling
// mutex held on every path (a conservative, intra-function analysis).
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"iter"
	"sort"
)

// An Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pinlint:allow suppressions.
	Name string
	// Doc is the analyzer's help text; the first line is its summary.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package: its syntax, type
// information, and the module-wide annotation index.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Index holds pinlint annotations for every function of every
	// loaded package and in-module dependency, so cross-package
	// annotation lookups (is the callee a hotpath function?) work
	// without facts machinery.
	Index *Index

	// pkg is the loaded package under analysis, for analyzers that
	// need more than syntax and types (hotpath shells out to the
	// compiler with the package's file list and export data).
	pkg *Package

	diags []Diagnostic
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzer to pkg and returns its diagnostics, with
// //pinlint:allow-suppressed lines already filtered out and the rest in
// source order.
func Run(a *Analyzer, pkg *Package, index *Index) ([]Diagnostic, error) {
	raw, err := index.rawDiags(a, pkg)
	if err != nil {
		return nil, err
	}
	if a.Name == WaiverLint.Name {
		// The waiver police cannot be waived: a stale bare allow would
		// otherwise suppress its own staleness report.
		return append([]Diagnostic(nil), raw...), nil
	}
	allowed := allowedLines(pkg)
	var kept []Diagnostic
	for _, d := range raw {
		if !allowed.allows(pkg.Fset.Position(d.Pos), a.Name) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// rawDiags runs (once) the analyzer over pkg and caches its unfiltered
// diagnostics on the index. The cache is what lets waiverlint ask
// "would this analyzer fire on that line?" without doubling the cost
// of the whole suite.
func (ix *Index) rawDiags(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	if ix.raw == nil {
		ix.raw = map[*Package]map[string]rawResult{}
	}
	if r, ok := ix.raw[pkg][a.Name]; ok {
		return r.diags, r.err
	}
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Index:     ix,
		pkg:       pkg,
	}
	r := rawResult{}
	if err := a.Run(pass); err != nil {
		r.err = fmt.Errorf("%s: %w", a.Name, err)
	} else {
		r.diags = pass.diags
		sort.Slice(r.diags, func(i, j int) bool { return r.diags[i].Pos < r.diags[j].Pos })
	}
	if ix.raw[pkg] == nil {
		ix.raw[pkg] = map[string]rawResult{}
	}
	ix.raw[pkg][a.Name] = r
	return r.diags, r.err
}

// All returns the full pinlint analyzer suite in reporting order.
// WaiverLint runs last: by then the suite's raw diagnostics for the
// package are already cached and staleness checks are free.
func All() []*Analyzer {
	return []*Analyzer{HotPath, NoRand, LockCheck, LockOrder, GoroLeak, CycleBoundary, ErrWrap,
		ChanSafe, CancelFlow, SlotMath, WaiverLint}
}

// errorType is the predeclared error interface, for implements checks.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) satisfies the error
// interface.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}

// funcDecls yields every function declared with a body in files, with
// the object info defines for its name.
func funcDecls(files []*ast.File, info *types.Info) iter.Seq2[*ast.FuncDecl, *types.Func] {
	return func(yield func(*ast.FuncDecl, *types.Func) bool) {
		for _, file := range files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok && !yield(fd, fn) {
					return
				}
			}
		}
	}
}
