package analyzers

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFixtureCrossMatrix is the measurement behind "no further analyzer
// merge is available": every analyzer (waiverlint aside, which judges
// waivers rather than code) runs over every seeded-bug fixture, before
// waiver filtering, and each fixture must be flagged by its owner and by
// nothing else. Two analyzers that flagged the same seeded bugs would be
// candidates for a merge; the syntactic and the compiler-backed
// allocation checks were the one such pair, and are one analyzer now.
// Re-run this before proposing another.
func TestFixtureCrossMatrix(t *testing.T) {
	// owner names the analyzer a fixture belongs to when the directory
	// name does not.
	owner := map[string]string{
		"allocprovebad": "hotpath",    // the compiler half's fixture, kept under its old name
		"waiverlintbad": "waiverlint", // not in the matrix: the fixture has no owner row
	}
	// allowed lists the foreign diagnostics that are there on purpose,
	// as "fixture analyzer line".
	allowed := map[string]bool{
		// waiverlintbad seeds real norand hits under the waivers it
		// abuses (an unjustified one and a misspelt one).
		"waiverlintbad norand 11": true,
		"waiverlintbad norand 16": true,
	}

	dirs, err := filepath.Glob("testdata/src/*bad")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, dir := range dirs {
		fixture := filepath.Base(dir)
		own, ok := owner[fixture]
		if !ok {
			own = strings.TrimSuffix(fixture, "bad")
		}
		pkgs, index, err := Load(dir, ".")
		if err != nil {
			t.Fatalf("loading %s: %v", fixture, err)
		}
		flagged := map[string][]int{} // analyzer -> lines
		for _, a := range All() {
			if a.Name == WaiverLint.Name {
				continue
			}
			for _, pkg := range pkgs {
				diags, err := index.rawDiags(a, pkg)
				if err != nil {
					t.Fatalf("%s on %s: %v", a.Name, fixture, err)
				}
				for _, d := range diags {
					flagged[a.Name] = append(flagged[a.Name], pkg.Fset.Position(d.Pos).Line)
				}
			}
		}
		if own != WaiverLint.Name && len(flagged[own]) == 0 {
			t.Errorf("%s: its owner %s reports nothing", fixture, own)
		}
		var names []string
		for name := range flagged {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if name == own {
				continue
			}
			for _, line := range flagged[name] {
				if !allowed[fmt.Sprintf("%s %s %d", fixture, name, line)] {
					t.Errorf("%s:%d is also flagged by %s: an overlap with %s, or a fixture that seeds two kinds of bug", fixture, line, name, own)
				}
			}
		}
	}
}
