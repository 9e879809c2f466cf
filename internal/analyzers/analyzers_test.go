package analyzers_test

import (
	"fmt"
	"go/types"
	"slices"
	"strings"
	"testing"

	"pinbcast/internal/analyzers"
)

// Each analyzer is proven against a bad fixture (every diagnostic
// matched by a // want expectation, so the flagged line count is > 0)
// and a good fixture (zero diagnostics).

func TestHotPath(t *testing.T) {
	checkFixture(t, analyzers.HotPath, "testdata/src/hotpathbad")
	checkFixture(t, analyzers.HotPath, "testdata/src/hotpathgood")
}

func TestNoRand(t *testing.T) {
	checkFixture(t, analyzers.NoRand, "testdata/src/norandbad")
	checkFixture(t, analyzers.NoRand, "testdata/src/norandgood")
}

func TestLockCheck(t *testing.T) {
	checkFixture(t, analyzers.LockCheck, "testdata/src/lockcheckbad")
	checkFixture(t, analyzers.LockCheck, "testdata/src/lockcheckgood")
}

// TestAllocProve holds the compiler-backed half of hotpath to the
// fixtures written for it when it was an analyzer of its own.
func TestAllocProve(t *testing.T) {
	checkFixture(t, analyzers.HotPath, "testdata/src/allocprovebad")
	checkFixture(t, analyzers.HotPath, "testdata/src/allocprovegood")
}

func TestLockOrder(t *testing.T) {
	checkFixture(t, analyzers.LockOrder, "testdata/src/lockorderbad")
	checkFixture(t, analyzers.LockOrder, "testdata/src/lockordergood")
}

func TestGoroLeak(t *testing.T) {
	checkFixture(t, analyzers.GoroLeak, "testdata/src/goroleakbad")
	checkFixture(t, analyzers.GoroLeak, "testdata/src/goroleakgood")
}

func TestCycleBoundary(t *testing.T) {
	checkFixture(t, analyzers.CycleBoundary, "testdata/src/cycleboundarybad")
	checkFixture(t, analyzers.CycleBoundary, "testdata/src/cycleboundarygood")
}

func TestErrWrap(t *testing.T) {
	checkFixture(t, analyzers.ErrWrap, "testdata/src/errwrapbad")
	checkFixture(t, analyzers.ErrWrap, "testdata/src/errwrapgood")
}

func TestChanSafe(t *testing.T) {
	checkFixture(t, analyzers.ChanSafe, "testdata/src/chansafebad")
	checkFixture(t, analyzers.ChanSafe, "testdata/src/chansafegood")
}

func TestCancelFlow(t *testing.T) {
	checkFixture(t, analyzers.CancelFlow, "testdata/src/cancelflowbad")
	checkFixture(t, analyzers.CancelFlow, "testdata/src/cancelflowgood")
}

func TestSlotMath(t *testing.T) {
	checkFixture(t, analyzers.SlotMath, "testdata/src/slotmathbad")
	checkFixture(t, analyzers.SlotMath, "testdata/src/slotmathgood")
}

func TestWaiverLint(t *testing.T) {
	checkFixture(t, analyzers.WaiverLint, "testdata/src/waiverlintbad")
	checkFixture(t, analyzers.WaiverLint, "testdata/src/waiverlintgood")
}

// TestModuleClean is the suite's self-check: every analyzer over every
// package of the module must report nothing. This is the same gate CI's
// lint job enforces through cmd/pinlint, kept here so `go test` alone
// proves the tree honors its own annotations.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	for pkg, diags := range fullRun(t) {
		for _, d := range diags {
			t.Errorf("%s: %s", pkg, d)
		}
	}
}

// fullRun is runSuite over the whole module, done once for the tests
// that need it (they do not run in parallel).
func fullRun(t *testing.T) map[string][]string {
	if fullRunDiags == nil {
		fullRunDiags = runSuite(t, "pinbcast/...")
	}
	return fullRunDiags
}

var fullRunDiags map[string][]string

// runSuite loads the patterns from the module root and returns every
// analyzer's diagnostics, rendered, by package path.
func runSuite(t *testing.T, patterns ...string) map[string][]string {
	t.Helper()
	pkgs, index, err := analyzers.Load("../..", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, pkg := range pkgs {
		out[pkg.PkgPath] = nil
		for _, a := range analyzers.All() {
			diags, err := analyzers.Run(a, pkg, index)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				out[pkg.PkgPath] = append(out[pkg.PkgPath], fmt.Sprintf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message))
			}
		}
	}
	return out
}

// TestNarrowPatternMatchesFullRun pins what a pattern narrower than
// ./... reports: a package loaded alone draws exactly its share of the
// full-module run, because the annotations of its in-module
// dependencies are indexed even though those packages are not analysed
// — otherwise ida's calls into gf256 look like calls to un-annotated
// functions and `pinlint ./internal/ida` fails on a clean tree.
func TestNarrowPatternMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	full := fullRun(t)
	for _, path := range []string{"pinbcast/internal/ida", "pinbcast/internal/client", "pinbcast/internal/transport"} {
		want, ok := full[path]
		if !ok {
			t.Fatalf("%s is not in the full run", path)
		}
		narrow := runSuite(t, path)
		if len(narrow) != 1 {
			t.Fatalf("loading %s alone analysed %d packages, want 1", path, len(narrow))
		}
		if got := narrow[path]; !slices.Equal(got, want) {
			t.Errorf("%s alone:\n  %s\nin the full run:\n  %s", path, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

// TestFuncKey pins the symbol-key format the annotation index relies
// on for cross-package lookups: methods are keyed without the pointer,
// so source-checked and export-data objects agree.
func TestFuncKey(t *testing.T) {
	pkgs, _, err := analyzers.Load("testdata/src/cycleboundarygood", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	fn, ok := pkg.Types.Scope().Lookup("New").(*types.Func)
	if !ok {
		t.Fatal("New not found")
	}
	if got, want := analyzers.FuncKey(fn), pkg.PkgPath+".New"; got != want {
		t.Errorf("FuncKey(New) = %q, want %q", got, want)
	}
	station, ok := pkg.Types.Scope().Lookup("station").(*types.TypeName)
	if !ok {
		t.Fatal("station not found")
	}
	named := station.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != "swap" {
			continue
		}
		if got, want := analyzers.FuncKey(m), pkg.PkgPath+".(station).swap"; got != want {
			t.Errorf("FuncKey(swap) = %q, want %q", got, want)
		}
	}
}
