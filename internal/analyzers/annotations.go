package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// annotationPrefix introduces every pinlint machine comment.
const annotationPrefix = "//pinlint:"

// An Index maps functions (by stable symbol key) to their pinlint
// annotations, across every package of a load and every in-module
// dependency of one. It is how analyzers see annotations on functions
// in other packages, where only export data — not syntax — is
// available.
type Index struct {
	// Module is the module path of the analyzed packages; calls to
	// functions outside it (the standard library) are exempt from the
	// hotpath closure rule.
	Module string
	// funcs maps FuncKey -> annotation name -> argument text.
	funcs map[string]map[string]string
	// pkgs are the matched packages of the load, for the module-wide
	// analyses (lockorder's acquisition graph).
	pkgs []*Package
	// lockG caches lockorder's module-wide acquisition graph.
	lockG *lockGraph
	// cg caches the module call graph (callgraph.go).
	cg *callGraph
	// raw caches each analyzer's unfiltered diagnostics per package, so
	// waiverlint can test waivers for staleness without re-running the
	// suite (hotpath in particular shells out to the compiler).
	raw map[*Package]map[string]rawResult
	// sums caches interprocedural function summaries by analyzer name
	// (chansafe's close/send facts, cancelflow's blocking sites).
	sums map[string]any
}

// rawResult is one cached analyzer run: diagnostics before
// //pinlint:allow filtering, in source order.
type rawResult struct {
	diags []Diagnostic
	err   error
}

// NewIndex returns an empty index for the given module path.
func NewIndex(module string) *Index {
	return &Index{
		Module: module,
		funcs:  map[string]map[string]string{},
		sums:   map[string]any{},
	}
}

// AddPackage registers one loaded package for the module-wide analyses
// and indexes its annotations.
func (ix *Index) AddPackage(pkg *Package) {
	ix.pkgs = append(ix.pkgs, pkg)
	for _, f := range pkg.Files {
		ix.addAnnotations(pkg.PkgPath, f)
	}
}

// addAnnotations records the //pinlint: annotations on one file's
// function declarations. It reads syntax only, so it serves type-checked
// targets and merely parsed in-module dependencies alike; the key it
// builds is the one FuncKey derives from the type-checked object.
func (ix *Index) addAnnotations(pkgPath string, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		key := pkgPath + "."
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			key += "(" + recvTypeName(fd.Recv.List[0].Type) + ")."
		}
		key += fd.Name.Name
		for _, c := range fd.Doc.List {
			name, arg, ok := parseAnnotation(c.Text)
			if !ok {
				continue
			}
			if ix.funcs[key] == nil {
				ix.funcs[key] = map[string]string{}
			}
			ix.funcs[key][name] = arg
		}
	}
}

// recvTypeName is the receiver's type name with the pointer, parentheses
// and type parameters stripped: "Ring" for (r *Ring[T]).
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// Has reports whether fn carries the named annotation.
func (ix *Index) Has(fn *types.Func, name string) bool {
	_, ok := ix.funcs[FuncKey(fn)][name]
	return ok
}

// Arg returns the annotation's argument text ("" when absent).
func (ix *Index) Arg(fn *types.Func, name string) string {
	return ix.funcs[FuncKey(fn)][name]
}

// InModule reports whether the function is declared inside the analyzed
// module (as opposed to the standard library).
func (ix *Index) InModule(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == ix.Module || strings.HasPrefix(path, ix.Module+"/")
}

// FuncKey returns a stable cross-package symbol key for a function:
// "pkgpath.Name" for package functions, "pkgpath.(Recv).Name" for
// methods. Pointer receivers are normalized away so the key is the same
// whether the object came from source or from export data.
func FuncKey(fn *types.Func) string {
	var b strings.Builder
	if pkg := fn.Pkg(); pkg != nil {
		b.WriteString(pkg.Path())
		b.WriteByte('.')
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			b.WriteByte('(')
			b.WriteString(named.Obj().Name())
			b.WriteString(").")
		}
	}
	b.WriteString(fn.Name())
	return b.String()
}

// parseAnnotation splits one comment into an annotation name and
// argument: "//pinlint:holds mu" -> ("holds", "mu", true).
func parseAnnotation(text string) (name, arg string, ok bool) {
	if !strings.HasPrefix(text, annotationPrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, annotationPrefix)
	name, arg, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(arg), name != ""
}

// allowSet records, per file and line, which analyzers are suppressed
// by a //pinlint:allow comment on that line.
type allowSet map[string]map[int][]string

// allowedLines scans a package's comments for //pinlint:allow markers.
// The allow list is the space-separated analyzer names immediately
// after "allow"; anything after " — " (or " -- ") is justification
// text. A bare allow suppresses every analyzer on the line.
func allowedLines(pkg *Package) allowSet {
	set := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg, ok := parseAnnotation(c.Text)
				if !ok || name != "allow" {
					continue
				}
				for _, sep := range []string{" — ", " -- "} {
					if head, _, found := strings.Cut(arg, sep); found {
						arg = head
						break
					}
				}
				pos := pkg.Fset.Position(c.Pos())
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int][]string{}
				}
				names := strings.Fields(arg)
				if len(names) == 0 {
					names = []string{"*"}
				}
				set[pos.Filename][pos.Line] = append(set[pos.Filename][pos.Line], names...)
			}
		}
	}
	return set
}

// allows reports whether the analyzer is suppressed at the position.
func (s allowSet) allows(pos token.Position, analyzer string) bool {
	for _, name := range s[pos.Filename][pos.Line] {
		if name == "*" || name == analyzer {
			return true
		}
	}
	return false
}
