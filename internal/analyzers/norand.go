package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoRand enforces the injected-randomness discipline: outside _test.go
// files, all randomness must flow through a *rand.Rand built from an
// explicit seed (the BernoulliFaults convention), so simulations and
// fault models are deterministic and race-free by construction.
//
// Diagnosed:
//
//   - any call to a top-level math/rand (or math/rand/v2) function that
//     draws from or mutates the global generator (rand.Intn, rand.Seed,
//     rand.Shuffle, ...). Constructors (rand.New, rand.NewSource,
//     rand.NewZipf, ...) are allowed — they are how injection happens;
//   - seeding a generator from the wall clock:
//     rand.New(rand.NewSource(time.Now()...)), which destroys
//     reproducibility even though the generator itself is injected.
var NoRand = &Analyzer{
	Name: "norand",
	Doc:  "forbid global math/rand state and wall-clock seeding outside tests",
	Run:  runNoRand,
}

// randConstructors are the math/rand top-level functions that build
// injectable state rather than draw from the shared generator.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runNoRand(pass *Pass) error {
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Signature().Recv() != nil {
				return true
			}
			pkg := fn.Pkg()
			if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
				return true
			}
			if !randConstructors[fn.Name()] {
				pass.Reportf(sel.Pos(), "use of global math/rand state via rand.%s; inject a *rand.Rand instead", fn.Name())
			}
			return true
		})
		checkWallClockSeeds(pass, file)
	}
	return nil
}

// checkWallClockSeeds flags rand.New(rand.NewSource(... time.Now() ...)).
func checkWallClockSeeds(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isRandCall(pass, call, "NewSource") {
			return true
		}
		for _, arg := range call.Args {
			if callsTimeNow(pass, arg) {
				pass.Reportf(call.Pos(), "rand.NewSource seeded from the wall clock; inject a deterministic seed instead")
			}
		}
		return true
	})
}

// isRandCall reports whether call invokes math/rand.<name>.
func isRandCall(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	pkg := fn.Pkg()
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

// callsTimeNow reports whether the expression contains a time.Now call.
func callsTimeNow(pass *Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if ok && fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
			found = true
		}
		return true
	})
	return found
}
