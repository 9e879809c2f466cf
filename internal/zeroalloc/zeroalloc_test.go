package zeroalloc

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pinbcast/internal/analyzers"
)

// unbenchedHotPaths is the allow-list of TestHotPathsRunAllocationFree:
// //pinlint:hotpath functions that no zero-alloc benchmark runs, each
// with the reason it stays. The list may only shrink — give a new hot
// path a benchmark that runs it instead of an entry here.
var unbenchedHotPaths = map[string]string{
	"pinbcast/internal/server.(Server).Emit":      "the slot encoder only cmd/bdload calls; a station serves from Block",
	"pinbcast/internal/server.(Server).EmitBlock": "the in-process slot source only cmd/bdload calls; a station serves from Block",
	"pinbcast/internal/transport.AppendFrame":     "the frame encoder of the tests and cmd/bdload; the fan-out writer sends appendHeader's header and the payload in one writev",
}

// A hotFunc is one //pinlint:hotpath function with a body: the file its
// coverage blocks are filed under and the span of its body.
type hotFunc struct {
	file       string
	start, end token.Position
}

// TestHotPathsRunAllocationFree holds the zero-allocation claim to one
// list, the //pinlint:hotpath annotations. It runs every zero-alloc
// benchmark (a Benchmark function that reaches a Start call, directly
// or through its own package's helpers) for minN iterations, so Start
// judges each one, under a coverage profile of the packages that
// declare hot functions. It fails when a benchmark allocates, when a
// hot function with a body runs no statement and is not on
// unbenchedHotPaths, and when an entry there runs or names no hot
// function. The hot set is the one of the current GOOS, GOARCH and
// build tags; assembly declarations have no body and are exempt.
func TestHotPathsRunAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module and runs its zero-alloc benchmarks")
	}
	root := filepath.Join("..", "..")
	pkgs, ix, err := analyzers.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}

	hot := map[string]hotFunc{}
	var hotPkgs, benchPkgs, benches []string
	for _, pkg := range pkgs {
		declares := false
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ix.Has(fn, "hotpath") {
					continue
				}
				start := pkg.Fset.Position(fd.Body.Pos())
				hot[analyzers.FuncKey(fn)] = hotFunc{
					file:  pkg.PkgPath + "/" + filepath.Base(start.Filename),
					start: start,
					end:   pkg.Fset.Position(fd.Body.End()),
				}
				declares = true
			}
		}
		if declares {
			hotPkgs = append(hotPkgs, pkg.PkgPath)
		}
		names, err := zeroAllocBenchmarks(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) > 0 {
			benchPkgs = append(benchPkgs, pkg.PkgPath)
			benches = append(benches, names...)
		}
	}
	if len(benches) == 0 {
		t.Fatal("no benchmark in the module calls zeroalloc.Start")
	}

	profile := filepath.Join(t.TempDir(), "cover.out")
	args := append([]string{"test", "-run", "^$",
		"-bench", "^(" + strings.Join(benches, "|") + ")$",
		"-benchtime", fmt.Sprintf("%dx", minN),
		"-coverpkg", strings.Join(hotPkgs, ","),
		"-coverprofile", profile,
	}, benchPkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	ran, err := ranBlocks(profile)
	if err != nil {
		t.Fatal(err)
	}

	var keys []string
	for key := range hot {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	covered := 0
	for _, key := range keys {
		fn, runs := hot[key], false
		for _, b := range ran[fn.file] {
			runs = runs || !before(b[0], fn.start) && !before(fn.end, b[1])
		}
		_, allowed := unbenchedHotPaths[key]
		switch {
		case runs && allowed:
			t.Errorf("%s runs under a zero-alloc benchmark: delete its unbenchedHotPaths entry", key)
		case !runs && !allowed:
			t.Errorf("%s (%s:%d) is //pinlint:hotpath, but no zero-alloc benchmark runs it", key, fn.start.Filename, fn.start.Line)
		case runs:
			covered++
		}
	}
	for key := range unbenchedHotPaths {
		if _, ok := hot[key]; !ok {
			t.Errorf("unbenchedHotPaths names %s, which is no //pinlint:hotpath function with a body", key)
		}
	}
	t.Logf("%d zero-alloc benchmarks in %d packages, allocation-free at %d iterations, ran %d of %d hot functions (%d allow-listed)",
		len(benches), len(benchPkgs), minN, covered, len(hot), len(unbenchedHotPaths))
}

// zeroAllocBenchmarks returns the Benchmark functions of dir's test
// files that reach a zeroalloc.Start call, directly or through helpers
// of their own package.
func zeroAllocBenchmarks(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	// Per package clause (a directory may hold an external test
	// package): which functions call Start, and which names each calls.
	starts := map[string]bool{}
	calls := map[string][]string{}
	var benches []string
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			self := f.Name.Name + "." + fd.Name.Name
			if strings.HasPrefix(fd.Name.Name, "Benchmark") {
				benches = append(benches, self)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					calls[self] = append(calls[self], f.Name.Name+"."+fun.Name)
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok && x.Name == "zeroalloc" && fun.Sel.Name == "Start" {
						starts[self] = true
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, callee := range callees {
				if starts[callee] && !starts[fn] {
					starts[fn], changed = true, true
				}
			}
		}
	}
	var names []string
	for _, b := range benches {
		if starts[b] {
			_, name, _ := strings.Cut(b, ".")
			names = append(names, name)
		}
	}
	return names, nil
}

// ranBlocks reads a coverage profile into the spans, by file, of the
// blocks that ran at least once.
func ranBlocks(profile string) (map[string][][2]token.Position, error) {
	f, err := os.Open(profile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ran := map[string][][2]token.Position{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ':')
		if strings.HasPrefix(line, "mode:") || i < 0 {
			continue
		}
		var b [2]token.Position
		var stmts, count int
		if _, err := fmt.Sscanf(line[i+1:], "%d.%d,%d.%d %d %d",
			&b[0].Line, &b[0].Column, &b[1].Line, &b[1].Column, &stmts, &count); err != nil {
			return nil, fmt.Errorf("%s: %q: %w", profile, line, err)
		}
		if count > 0 {
			ran[line[:i]] = append(ran[line[:i]], b)
		}
	}
	return ran, sc.Err()
}

// before reports whether a lies before b in the same file.
func before(a, b token.Position) bool {
	return a.Line < b.Line || a.Line == b.Line && a.Column < b.Column
}
