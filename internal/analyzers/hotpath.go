package analyzers

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotPath holds every //pinlint:hotpath function to its zero-allocation
// claim. These are the serve/fanout/receive/codec paths whose
// benchmarks assert 0 allocs/op; the analyzer fails the regression
// before the benchmark does.
//
// The verdict on a value is the compiler's: each package that annotates
// a hot path is compiled with `go tool compile -m` — dependencies
// resolved from the same export data the loader type-checked against,
// so no build cache can swallow the output — and every "escapes to
// heap" / "moved to heap" diagnostic inside an annotated function is
// reported. Literals, new, closures and interface boxing are therefore
// flagged exactly when they cost an allocation and not when the value
// stays on the stack. One class of site is exempt by rule: a string
// constant escaping into an interface (a panic argument) is backed by
// static data and never allocates at run time.
//
// Escape analysis is per function and sees only what is written, so
// five syntactic rules cover what it cannot:
//
//   - a call to a module-local function that is not itself annotated
//     //pinlint:hotpath, which closes the property over the call graph
//     (standard-library calls other than fmt, and dynamic calls through
//     an interface or a function value, are exempt);
//   - append to a local slice that was not made with an explicit
//     capacity in the same function (appending to a reslice like
//     buf[:0], to a parameter, or to a struct field follows the
//     caller-owned-buffer discipline and is allowed) — growth happens
//     inside the runtime, where the compiler reports nothing;
//   - string concatenation (+ / += on strings), likewise;
//   - any call into package fmt;
//   - go statements (a goroutine spawn per slot is an allocation and a
//     scheduling hazard).
//
// Cold paths inside hot functions (error construction, setup before
// the loop, amortized refills) are waived line by line with
//
//	//pinlint:allow hotpath — <which calls pay, and why that is off the per-slot path>
//
// The justification is policy: it tells the next perf pass how to rank
// the site. `go build -gcflags=-m ./internal/ida` is the ad-hoc escape
// listing for code outside the annotated set.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "hold //pinlint:hotpath functions allocation-free: compiler escape analysis, closed over the call graph",
	Run:  runHotPath,
}

// hotRange is one annotated function's extent in the sources, for
// attributing compiler diagnostics (which carry only file:line:col).
type hotRange struct {
	file     string
	from, to int // line range, inclusive
	name     string
}

func runHotPath(pass *Pass) error {
	var hot []hotRange
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || !pass.Index.Has(fn, "hotpath") {
				continue
			}
			checkHotFunc(pass, fd, fn)
			from, to := pass.Fset.Position(fd.Pos()), pass.Fset.Position(fd.Body.End())
			hot = append(hot, hotRange{file: from.Filename, from: from.Line, to: to.Line, name: fn.Name()})
		}
	}
	// Only packages that annotate hot paths pay the compile.
	if len(hot) == 0 {
		return nil
	}
	return reportEscapes(pass, hot)
}

// checkHotFunc applies the syntactic rules to one annotated function,
// closures declared in it included.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, fn *types.Func) {
	info := pass.TypesInfo
	capped := cappedSlices(info, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, capped)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n.X)) {
				pass.Reportf(n.OpPos, "string concatenation in hotpath function %s allocates", fn.Name())
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.TokPos, "string concatenation in hotpath function %s allocates", fn.Name())
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hotpath function %s spawns per-call", fn.Name())
		}
		return true
	})
}

// checkHotCall diagnoses one call expression inside a hotpath function.
func checkHotCall(pass *Pass, caller *types.Func, call *ast.CallExpr, capped map[types.Object]bool) {
	info := pass.TypesInfo

	// Conversions are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	// Builtins: append gets the capacity discipline.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				checkAppend(pass, caller, call, capped)
			}
			return
		}
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		// Calling a function value or other dynamic target: the static
		// analysis cannot follow it.
		return
	}
	if recv := callee.Signature().Recv(); recv != nil {
		if _, ok := recv.Type().Underlying().(*types.Interface); ok {
			return // dynamic dispatch: unresolvable statically, exempt
		}
	}
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		pass.Reportf(call.Pos(), "call to %s.%s in hotpath function %s (fmt allocates)", pkg.Name(), callee.Name(), caller.Name())
		return
	}
	if pass.Index.InModule(callee) && !pass.Index.Has(callee, "hotpath") {
		pass.Reportf(call.Pos(), "hotpath function %s calls %s, which is not annotated //pinlint:hotpath", caller.Name(), callee.Name())
	}
}

// checkAppend enforces the preallocated-capacity discipline: appending
// to a fresh local slice is only allowed when the function made it
// with an explicit capacity.
func checkAppend(pass *Pass, caller *types.Func, call *ast.CallExpr, capped map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	switch dst := unparen(call.Args[0]).(type) {
	case *ast.SliceExpr:
		return // append(buf[:0], ...): reuse of an owned buffer
	case *ast.SelectorExpr, *ast.IndexExpr:
		return // struct-field or element buffer: owner preallocates
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[dst]
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return
		}
		if isParam(caller, obj) || capped[obj] {
			return
		}
		pass.Reportf(call.Pos(), "append to %s in hotpath function %s may grow without preallocated capacity", dst.Name, caller.Name())
	default:
		pass.Reportf(call.Pos(), "append in hotpath function %s may grow without preallocated capacity", caller.Name())
	}
}

// cappedSlices collects local variables initialized from a make call
// with an explicit capacity anywhere in the body.
func cappedSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	capped := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				continue
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
				continue
			}
			if lhs, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(lhs); obj != nil {
					capped[obj] = true
				}
			}
		}
		return true
	})
	return capped
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isParam(fn *types.Func, obj types.Object) bool {
	sig := fn.Signature()
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	if recv := sig.Recv(); recv != nil && recv == obj {
		return true
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// escapeLineRE matches one compiler diagnostic line.
var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// reportEscapes compiles the package under analysis with `go tool
// compile -m` and reports each heap-escape diagnostic that falls inside
// one of the hot ranges. The import map is the loader's export data, so
// the compile needs no build cache warm-up and cannot be skipped by one.
func reportEscapes(pass *Pass, hot []hotRange) error {
	pkg := pass.pkg
	tmp, err := os.MkdirTemp("", "pinlint-hotpath-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var cfg bytes.Buffer
	var paths []string
	for path := range pkg.Exports {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fmt.Fprintf(&cfg, "packagefile %s=%s\n", path, pkg.Exports[path])
	}
	cfgFile := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgFile, cfg.Bytes(), 0o666); err != nil {
		return err
	}

	args := append([]string{
		"tool", "compile",
		"-p", pkg.PkgPath,
		"-importcfg", cfgFile,
		"-o", filepath.Join(tmp, "out.o"),
		"-m",
	}, pkg.GoFiles()...)
	cmd := exec.Command("go", args...)
	cmd.Dir = pkg.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go tool compile -m %s: %w\n%s", pkg.PkgPath, err, out)
	}

	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue // inliner and "does not escape" lines
		}
		// A string *constant* "escaping" into an interface (a panic
		// argument, almost always) is backed by static read-only data
		// and costs nothing at run time; the diagnostic is formally
		// true but operationally empty, so it is exempt by rule rather
		// than by waiver.
		if strings.HasPrefix(msg, `"`) && strings.HasSuffix(msg, `" escapes to heap`) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(pkg.Dir, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		for _, h := range hot {
			if h.file == file && h.from <= lineNo && lineNo <= h.to {
				pass.Reportf(filePos(pkg, file, lineNo, colNo), "compiler escape in hotpath function %s: %s", h.name, msg)
				break
			}
		}
	}
	return nil
}

// filePos converts a compiler (file, line, col) triple, known to lie
// inside a function of the package, back into a token.Pos of its parsed
// file. The shared FileSet also holds same-named entries registered by
// the export-data importer with fake line info, so resolution goes
// through the package's own syntax, not a FileSet scan.
func filePos(pkg *Package, file string, line, col int) token.Pos {
	for _, af := range pkg.Files {
		if f := pkg.Fset.File(af.Pos()); f.Name() == file {
			return f.LineStart(line) + token.Pos(col-1)
		}
	}
	return token.NoPos
}
