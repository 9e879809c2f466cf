package pinbcast

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"pinbcast/internal/analyzers"
)

// uncalledExports is the allow-list of TestExportsHaveCallers: exported
// functions and methods nothing calls, each with the reason it stays.
// The list may only shrink — give a new export a caller instead of an
// entry here.
var uncalledExports = map[string]string{
	"WithLayout":                     "the by-value seam custom layouts plug in through, now that nothing registers",
	"WithSchedulers":                 "the by-value seam for custom scheduler chains",
	"WithShard":                      "the by-value seam for custom shard policies",
	"LookupShard":                    "the name → value half of the shard table, as LookupLayout and LookupScheduler are",
	"ShardNames":                     "what an unknown -shard flag lists, as LayoutNames and SchedulerNames do",
	"internal/gf256.MulSlow":         "the reference the kernels are fuzzed against",
	"internal/slotmath.Shl":          "the helper the slotmath analyzer tells code to use",
	"internal/ida.DisperseFile":      "the block fixture the tests of ida, client, cmd/bdserved and the root package build with",
	"internal/ida.Block.MarshalInto": "the wire encoder those tests frame blocks (forged ones too) with; the server seals its frames in place",
	"internal/zeroalloc.Start":       "the entry point of the test-support package",
}

// TestExportsHaveCallers holds the exported surface to what something
// runs. It type-checks the module and cmd/bdload (its own module) and
// requires, of every exported function and method declared in a non-test
// file:
//
//   - in the root package, a use by a non-test file of a cmd/ binary
//     (cmd/bdload included), an examples/ program or a paper table in
//     internal/exp;
//   - in any other package, a use by a non-test file anywhere, its own
//     package included.
//
// A method that implements a method of an interface the module declares
// or imports counts as used, and so does anything on the allow-list
// above.
func TestExportsHaveCallers(t *testing.T) {
	var pkgs []*analyzers.Package
	for _, dir := range []string{".", "cmd/bdload"} {
		loaded, _, err := analyzers.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}

	// Packages are loaded twice (from source, and as export data by
	// their importers), so a function is known by its name, not by its
	// types.Object.
	exported := map[string]*types.Func{}
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.PkgPath, "pinbcast/cmd/bdload") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					obj := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
					exported[exportName(obj)] = obj
				}
			}
		}
	}

	// Every interface the module declares or imports, by its method
	// names, and encoding's two, which encoding/json asserts on the
	// module's values without the module importing encoding.
	ifaces := [][]string{{"MarshalText"}, {"UnmarshalText"}}
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					var ms []string
					for i := range it.NumMethods() {
						ms = append(ms, it.Method(i).Name())
					}
					ifaces = append(ifaces, ms)
				}
			}
		}
	}
	addIfaces(types.Universe)
	for _, pkg := range pkgs {
		addIfaces(pkg.Types.Scope())
		for _, imp := range pkg.Types.Imports() {
			addIfaces(imp.Scope())
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || derefNamed(recv.Type()) == nil {
			return false
		}
		mset := types.NewMethodSet(types.NewPointer(derefNamed(recv.Type())))
		has := func(name string) bool { return mset.Lookup(fn.Pkg(), name) != nil }
	next:
		for _, ms := range ifaces {
			named := false
			for _, m := range ms {
				if !has(m) {
					continue next
				}
				named = named || m == fn.Name()
			}
			if named {
				return true
			}
		}
		return false
	}

	// used[name] holds the packages that name the function outside its
	// own body.
	used := map[string][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				self := ""
				if fn, ok := decl.(*ast.FuncDecl); ok {
					if obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func); ok {
						self = exportName(obj)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
							if name := exportName(obj); name != self {
								used[name] = append(used[name], pkg.PkgPath)
							}
						}
					}
					return true
				})
			}
		}
	}
	called := func(name string, fn *types.Func) bool {
		if implements(fn) {
			return true
		}
		for _, by := range used[name] {
			if fn.Pkg().Path() != "pinbcast" || strings.HasPrefix(by, "pinbcast/cmd/") ||
				strings.HasPrefix(by, "pinbcast/examples/") || strings.HasPrefix(by, "pinbcast/internal/exp") {
				return true
			}
		}
		return false
	}

	var names []string
	for name := range exported {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, allowed := uncalledExports[name]
		switch c := called(name, exported[name]); {
		case !c && !allowed:
			t.Errorf("exported %s has no caller: give it one or delete it", name)
		case c && allowed:
			t.Errorf("%s has a caller now: take it off the allow-list", name)
		}
	}
	for name := range uncalledExports {
		if exported[name] == nil {
			t.Errorf("allow-list names %s, which the module does not export", name)
		}
	}
}

// exportName names a function as the allow-list does: Name or Type.Name
// in the root package, otherwise prefixed by the package's path inside
// the module (internal/ida.Codec.M).
func exportName(fn *types.Func) string {
	fn = fn.Origin()
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := derefNamed(recv.Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() == nil {
		return name
	}
	if path := strings.TrimPrefix(fn.Pkg().Path(), "pinbcast/"); path != "pinbcast" {
		return path + "." + name
	}
	return name
}

// derefNamed is the named type behind t or *t, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}
