package analyzers

import (
	"go/token"
	"sort"
	"strings"
)

// WaiverLint keeps the //pinlint:allow waiver policy honest forever:
//
//   - every waiver must carry a justification (text after " — " or
//     " -- ") — the PR-7 policy, now machine-checked;
//   - every waiver must name analyzers that exist;
//   - every waiver must still be suppressing something: if none of the
//     named analyzers (or, for a bare allow, no analyzer at all) would
//     fire on that line, the waiver is stale and must be deleted, so
//     the inventory (`pinlint -waivers`) never overstates the debt.
//
// Staleness is tested against the suite's cached raw (pre-suppression)
// diagnostics, so the check costs nothing beyond the run that already
// happened. waiverlint's own diagnostics are exempt from //pinlint:allow
// filtering — the waiver police cannot be waived.
var WaiverLint = &Analyzer{
	Name: "waiverlint",
	Doc:  "flag stale or unjustified //pinlint:allow waivers and keep the waiver inventory honest",
}

// runWaiverLint consults All() (which includes WaiverLint itself), so
// the Run hook is attached after initialization to break the cycle.
func init() { WaiverLint.Run = runWaiverLint }

// A Waiver is one parsed //pinlint:allow comment.
type Waiver struct {
	Pos  token.Pos
	File string
	Line int
	// Analyzers are the named analyzers; empty means all (a bare
	// allow).
	Analyzers []string
	// Justification is the free text after the " — " separator.
	Justification string
}

// PackageWaivers extracts every //pinlint:allow comment of the
// package, in source order — the inventory behind `pinlint -waivers`
// and the input to waiverlint.
func PackageWaivers(pkg *Package) []Waiver {
	var out []Waiver
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg, ok := parseAnnotation(c.Text)
				if !ok || name != "allow" {
					continue
				}
				// Fixture scaffolding: the fixtures' want expectations share
				// the waiver's line comment and are not waiver content.
				if i := strings.Index(arg, "// want"); i >= 0 {
					arg = strings.TrimSpace(arg[:i])
				}
				just := ""
				for _, sep := range []string{" — ", " -- "} {
					if head, tail, found := strings.Cut(arg, sep); found {
						arg, just = head, strings.TrimSpace(tail)
						break
					}
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, Waiver{
					Pos:           c.Pos(),
					File:          pos.Filename,
					Line:          pos.Line,
					Analyzers:     strings.Fields(arg),
					Justification: just,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

func runWaiverLint(pass *Pass) error {
	waivers := PackageWaivers(pass.pkg)
	if len(waivers) == 0 {
		return nil
	}
	known := map[string]*Analyzer{}
	var all []*Analyzer
	for _, a := range All() {
		if a.Name == WaiverLint.Name {
			continue // the waiver police cannot be waived
		}
		known[a.Name] = a
		all = append(all, a)
	}
	for _, w := range waivers {
		if w.Justification == "" {
			pass.Reportf(w.Pos, "waiver has no justification; write //pinlint:allow %s — why it is safe",
				strings.Join(w.Analyzers, " "))
		}
		candidates := all
		if len(w.Analyzers) > 0 {
			candidates = candidates[:0:0]
			for _, name := range w.Analyzers {
				a, ok := known[name]
				if !ok {
					pass.Reportf(w.Pos, "waiver names unknown analyzer %q", name)
					continue
				}
				candidates = append(candidates, a)
			}
			if len(candidates) == 0 {
				continue // only unknown names: already reported
			}
		}
		live := false
		for _, a := range candidates {
			diags, err := pass.Index.rawDiags(a, pass.pkg)
			if err != nil {
				// Indeterminate (e.g. the compiler backing hotpath
				// failed): never call a waiver stale on a guess.
				live = true
				break
			}
			for _, d := range diags {
				p := pass.Fset.Position(d.Pos)
				if p.Filename == w.File && p.Line == w.Line {
					live = true
					break
				}
			}
			if live {
				break
			}
		}
		if !live {
			pass.Reportf(w.Pos, "stale waiver: %s no longer fires on this line; delete the //pinlint:allow",
				waiverSubject(w))
		}
	}
	return nil
}

func waiverSubject(w Waiver) string {
	if len(w.Analyzers) == 0 {
		return "no analyzer"
	}
	return strings.Join(w.Analyzers, "/")
}
