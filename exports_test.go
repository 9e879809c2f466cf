package pinbcast

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports is the allow-list of TestExportsHaveCallers: exported
// functions nothing under cmd/, examples/ or internal/exp calls, each
// with the reason it stays. The list may only shrink — give a new export
// a caller instead of an entry here.
var uncalledExports = map[string]string{
	"WithLayout":     "the by-value seam custom layouts plug in through, now that nothing registers",
	"WithSchedulers": "the by-value seam for custom scheduler chains",
	"WithShard":      "the by-value seam for custom shard policies",
	"LookupShard":    "the name → value half of the shard table, as LookupLayout and LookupScheduler are",
	"ShardNames":     "what an unknown -shard flag lists, as LayoutNames and SchedulerNames do",
}

// TestExportsHaveCallers holds the public surface to what something
// runs: every exported package-level function of the root package is
// named as pinbcast.<Name> by a non-test file of a cmd/ binary
// (cmd/bdload included), an examples/ program or a paper table in
// internal/exp — or sits on the allow-list above with its reason.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	production := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}

	var exported []string
	own, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range own {
		if !production(path) {
			continue
		}
		for _, decl := range parse(path).Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				exported = append(exported, fn.Name.Name)
			}
		}
	}
	sort.Strings(exported)

	called := map[string]bool{}
	for _, root := range []string{"cmd", "examples", filepath.Join("internal", "exp")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !production(path) {
				return err
			}
			ast.Inspect(parse(path), func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "pinbcast" {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range exported {
		_, allowed := uncalledExports[name]
		switch {
		case !called[name] && !allowed:
			t.Errorf("exported func %s has no caller under cmd/, examples/ or internal/exp: give it one or delete it", name)
		case called[name] && allowed:
			t.Errorf("%s has a caller now: take it off the allow-list", name)
		}
	}
	for name := range uncalledExports {
		if i := sort.SearchStrings(exported, name); i == len(exported) || exported[i] != name {
			t.Errorf("allow-list names %s, which the package does not export", name)
		}
	}
}
