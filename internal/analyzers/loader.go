package analyzers

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked target package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Exports maps import paths to compiler export data files for
	// every package of the load (shared across packages). hotpath
	// feeds it to `go tool compile -importcfg` so the real compiler's
	// escape analysis runs against the same dependency snapshot the
	// type checker saw, immune to build caching.
	Exports map[string]string
}

// GoFiles returns the package's source file names as parsed.
func (p *Package) GoFiles() []string {
	var names []string
	seen := map[string]bool{}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return names
}

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load resolves the patterns with `go list -export -deps` (run in dir,
// which must lie inside a module), parses and type-checks every matched
// package from source, and builds the annotation index the analyzers
// share. Dependencies — including dependencies between matched packages
// — are imported from compiler export data out of the build cache, the
// same way `go vet` loads types, so loading works fully offline. The
// returned packages are sorted by import path.
//
// A pattern narrower than ./... analyses only what it matches, but the
// //pinlint: annotations of every in-module dependency are still
// indexed (from syntax alone; dependencies are not type-checked), so an
// annotated callee in another package is seen as annotated and a narrow
// run reports exactly the matched packages' share of a full one. The
// module-wide analyses are the exception: lockorder's acquisition graph
// and the call graph behind chansafe and cancelflow are built from the
// matched packages only, so an ordering cycle or a blocking path that
// runs through an unmatched package shows up only under ./... .
func Load(dir string, patterns ...string) ([]*Package, *Index, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,Standard,DepOnly,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}

	exports := map[string]string{} // import path -> export data file
	var targets, deps []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		switch {
		case p.Standard: // export data is all anyone needs of it
		case p.DepOnly:
			deps = append(deps, p)
		default:
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	module := ""
	if len(targets) > 0 && targets[0].Module != nil {
		module = targets[0].Module.Path
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	index := NewIndex(module)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typeCheck(fset, imp, t)
		if err != nil {
			return nil, nil, err
		}
		pkg.Exports = exports
		pkgs = append(pkgs, pkg)
		index.AddPackage(pkg)
	}
	for _, d := range deps {
		if d.Module == nil || d.Module.Path != module {
			continue
		}
		files, err := parseFiles(fset, d)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range files {
			index.addAnnotations(d.ImportPath, f)
		}
	}
	return pkgs, index, nil
}

// parseFiles parses one listed package's (non-test) files, comments
// included.
func parseFiles(fset *token.FileSet, t *listedPackage) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck parses one listed package and type-checks it against the
// shared importer.
func typeCheck(fset *token.FileSet, imp types.Importer, t *listedPackage) (*Package, error) {
	files, err := parseFiles(fset, t)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{
		PkgPath:   t.ImportPath,
		Dir:       t.Dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
