package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses `src` as the body of a function and returns it.
func parseBody(t *testing.T, src string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\nfunc f() {\n"+src+"\n}", parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing body: %v", err)
	}
	return fset, file.Decls[0].(*ast.FuncDecl).Body
}

func TestCFGHasCycle(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"straight line", "a(); b()", false},
		{"if else", "if c { a() } else { b() }", false},
		{"infinite for", "for { a() }", true},
		{"bounded for", "for i := 0; i < 10; i++ { a() }", true},
		{"loop broken immediately", "for { break }", false},
		// The inner body always breaks the outer loop, so no cycle is
		// reachable even though two loops are spelled.
		{"labeled break out of nested loop", "outer:\nfor {\nfor {\nbreak outer\n}\n}", false},
		{"labeled break out of inner only", "outer:\nfor {\nfor {\nbreak\n}\n}", true},
		{"range", "for x := range xs { use(x) }", true},
		{"select in loop", "for { select { case <-ch: } }", true},
		{"switch", "switch x { case 1: a()\ncase 2: b() }", false},
		{"goto backward", "top:\na()\ngoto top", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, body := parseBody(t, tc.src)
			if got := NewCFG(body).HasCycle(); got != tc.want {
				t.Errorf("HasCycle(%q) = %v, want %v", tc.src, got, tc.want)
			}
		})
	}
}

func TestCFGExitReachability(t *testing.T) {
	// After an unconditional return, trailing code is unreachable; the
	// loop around it must not resurrect it.
	_, body := parseBody(t, "if c { return }\nfor { a() }")
	g := NewCFG(body)
	reached := g.Reachable(g.Entry)
	if !reached[g.Exit] {
		t.Error("exit not reachable through the return branch")
	}

	// A panic seals the path like a return.
	_, body = parseBody(t, `panic("boom")`)
	g = NewCFG(body)
	if g.HasCycle() {
		t.Error("panic-only body reported cyclic")
	}
	if !g.Reachable(g.Entry)[g.Exit] {
		t.Error("exit not reachable from panic")
	}
}

func TestCFGDump(t *testing.T) {
	fset, body := parseBody(t, "if c { a() } else { b() }")
	got := NewCFG(body).dump(fset)
	for _, want := range []string{"entry", "exit", "if.then", "if.else", "if.join"} {
		if !strings.Contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
}

// TestIterateMustAnalysis checks the fixpoint's meet behavior with a
// tiny must-have-called analysis: a state is true when a call to lock()
// definitely happened on every path.
func TestIterateMustAnalysis(t *testing.T) {
	run := func(src string) bool {
		_, body := parseBody(t, src)
		g := NewCFG(body)
		transfer := func(b *Block, s bool) bool {
			out := s
			for _, n := range b.Nodes {
				ast.Inspect(n, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "lock" {
							out = true
						}
					}
					return true
				})
			}
			return out
		}
		meet := func(a, b bool) bool { return a && b }
		eq := func(a, b bool) bool { return a == b }
		in := Iterate(g, false, transfer, meet, eq)
		return in[g.Exit]
	}
	if run("if c { lock() }\nuse()") {
		t.Error("one-sided lock reported as held on exit")
	}
	if !run("if c { lock() } else { lock() }\nuse()") {
		t.Error("both-sided lock not held on exit")
	}
	if !run("lock()\nfor i := 0; i < n; i++ { use(i) }") {
		t.Error("lock before loop lost through the loop join")
	}
}

func TestFuncLitsSkipDefer(t *testing.T) {
	_, body := parseBody(t, "go func() { a() }()\ndefer func() { b() }()\nf := func() { c() }\nuse(f)")
	lits := funcLits(body)
	if len(lits) != 2 {
		t.Fatalf("funcLits found %d literals, want 2 (deferred one excluded)", len(lits))
	}
}

// dump renders the CFG for tests: one line per block with successors.
func (g *CFG) dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%s:", b)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " ->%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
