package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typeCheckSource type-checks one import-free source file into a
// Package registered on a fresh Index, so call-graph and summary tests
// run without the go-list loader.
func typeCheckSource(t *testing.T, src string) (*Package, *Index) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check("testmod/p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	pkg := &Package{PkgPath: "testmod/p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, TypesInfo: info}
	ix := NewIndex("testmod")
	ix.AddPackage(pkg)
	return pkg, ix
}

// node looks a function up by FuncKey suffix ("Name" or "(Recv).Name").
func (g *callGraph) node(t *testing.T, key string) *cgNode {
	t.Helper()
	n := g.byKey["testmod/p."+key]
	if n == nil {
		t.Fatalf("no call-graph node %q; have %v", key, keysOf(g.byKey))
	}
	return n
}

func keysOf(m map[string]*cgNode) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestCallGraphStaticResolution(t *testing.T) {
	_, ix := typeCheckSource(t, `package p
func leaf() {}
func mid()  { leaf() }
func Top()  { mid(); go mid(); defer leaf() }
`)
	g := ix.callGraph()
	top := g.node(t, "Top")
	if len(top.Out) != 3 {
		t.Fatalf("Top has %d call sites, want 3", len(top.Out))
	}
	var goSites, deferSites int
	for _, s := range top.Out {
		if s.Dynamic {
			t.Errorf("static call marked dynamic: %v", s.Call.Fun)
		}
		if len(s.Callees) != 1 {
			t.Fatalf("static site resolved to %d callees, want 1", len(s.Callees))
		}
		if s.Go {
			goSites++
		}
		if s.Defer {
			deferSites++
		}
	}
	if goSites != 1 || deferSites != 1 {
		t.Errorf("go/defer flags: %d/%d, want 1/1", goSites, deferSites)
	}
	leaf := g.node(t, "leaf")
	if len(leaf.In) != 2 { // mid()'s call + Top's defer
		t.Errorf("leaf has %d incoming sites, want 2", len(leaf.In))
	}
}

func TestCallGraphDynamicDispatch(t *testing.T) {
	_, ix := typeCheckSource(t, `package p
type worker interface{ work() }
type a struct{}
type b struct{}
type other struct{}
func (a) work()      {}
func (*b) work()     {}
func (other) rest()  {}
func Drive(w worker) { w.work() }
`)
	g := ix.callGraph()
	drive := g.node(t, "Drive")
	if len(drive.Out) != 1 {
		t.Fatalf("Drive has %d sites, want 1", len(drive.Out))
	}
	site := drive.Out[0]
	if !site.Dynamic {
		t.Error("interface dispatch not marked dynamic")
	}
	got := map[string]bool{}
	for _, c := range site.Callees {
		got[FuncKey(c.Fn)] = true
	}
	if len(got) != 2 || !got["testmod/p.(a).work"] || !got["testmod/p.(b).work"] {
		t.Errorf("dispatch resolved to %v, want a.work and b.work", keysOfBool(got))
	}
}

func keysOfBool(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestCallGraphFuncLitAndOpaqueValue(t *testing.T) {
	_, ix := typeCheckSource(t, `package p
func leaf() {}
func Top(f func()) {
	go func() { leaf() }()
	f()
}
`)
	g := ix.callGraph()
	top := g.node(t, "Top")
	var litCall, opaque *callSite
	for _, s := range top.Out {
		if s.InLit {
			litCall = s
		} else if s.Dynamic {
			opaque = s
		}
	}
	if litCall == nil || len(litCall.Callees) != 1 || FuncKey(litCall.Callees[0].Fn) != "testmod/p.leaf" {
		t.Errorf("call inside goroutine literal not attributed to Top: %+v", litCall)
	}
	if opaque == nil || len(opaque.Callees) != 0 {
		t.Errorf("opaque function-value call should be dynamic with no callees: %+v", opaque)
	}
}

func TestCallGraphReachability(t *testing.T) {
	_, ix := typeCheckSource(t, `package p
func reached()    {}
func alsoReached() { reached() }
func Entry()       { alsoReached() }
func orphan()      {}
`)
	g := ix.callGraph()
	seen := g.reachableFrom(exportedEntry)
	want := map[string]bool{"Entry": true, "alsoReached": true, "reached": true, "orphan": false}
	for name, wantIn := range want {
		if got := seen[g.node(t, name)]; got != wantIn {
			t.Errorf("reachable[%s] = %v, want %v", name, got, wantIn)
		}
	}
}

func TestCallGraphRecursion(t *testing.T) {
	// Mutual recursion must neither loop the builder nor the traversal.
	_, ix := typeCheckSource(t, `package p
func ping(n int) { if n > 0 { pong(n - 1) } }
func pong(n int) { if n > 0 { ping(n - 1) } }
func Entry()     { ping(3) }
`)
	g := ix.callGraph()
	seen := g.reachableFrom(exportedEntry)
	if !seen[g.node(t, "ping")] || !seen[g.node(t, "pong")] {
		t.Error("mutually recursive pair not reachable from Entry")
	}
}

// reachableFrom returns every node reachable (over static edges,
// resolved dynamic dispatch, go, and defer) from the nodes seed
// accepts.
func (g *callGraph) reachableFrom(seed func(*cgNode) bool) map[*cgNode]bool {
	seen := map[*cgNode]bool{}
	var stack []*cgNode
	for _, n := range g.nodes {
		if seed(n) {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range n.Out {
			for _, c := range s.Callees {
				if !seen[c] {
					seen[c] = true
					stack = append(stack, c)
				}
			}
		}
	}
	return seen
}

// exportedEntry reports whether n is an API entry point: an exported
// function or method, or a main function.
func exportedEntry(n *cgNode) bool {
	return n.Decl.Name.IsExported() || n.Fn.Name() == "main"
}
