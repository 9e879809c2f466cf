package analyzers_test

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pinbcast/internal/analyzers"
)

var wantRE = regexp.MustCompile(`// want (.*)$`)

// checkFixture loads the fixture package at dir (relative to the test's
// working directory), applies the analyzer, and reports mismatches
// between its diagnostics and the fixture's `// want "regexp"`
// expectations as test errors, as golang.org/x/tools' analysistest does
// on the standard library alone.
//
// A fixture line may carry several expectations, and an expectation may
// carry a count when one line produces the same diagnostic repeatedly:
//
//	x := rand.Intn(6)  // want "global math/rand"
//	a, b := alloc()    // want "escapes" 2
//
// Every diagnostic must match an expectation on its line, and every
// expectation must be matched exactly its count's worth of times (one,
// when no count is given). On any mismatch the failure report includes
// a line-sorted diff of got-vs-want for the whole package, so a fixture
// edit that shifts lines reads as a diff rather than error confetti.
func checkFixture(t *testing.T, a *analyzers.Analyzer, dir string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, index, err := analyzers.Load(abs, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		diags, err := analyzers.Run(a, pkg, index)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
		wants := collectWants(t, pkg.Fset, pkg)
		mismatch := false
		var got []diagLine
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			got = append(got, diagLine{file: pos.Filename, line: pos.Line, text: d.Message})
			if !wants.match(pos, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
				mismatch = true
			}
		}
		if wants.reportUnmatched(t) {
			mismatch = true
		}
		if mismatch {
			t.Errorf("%s on %s, got-vs-want diff:\n%s", a.Name, pkg.PkgPath, wants.diff(got))
		}
	}
}

type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
	// count is how many diagnostics must match (1 unless the fixture
	// says otherwise); hits is how many did.
	count, hits int
}

type wantSet struct{ list []*wantExpectation }

// collectWants scans the fixture sources for want comments. It reads
// the files directly rather than the AST so expectations survive in
// any comment position.
func collectWants(t *testing.T, fset *token.FileSet, pkg *analyzers.Package) *wantSet {
	t.Helper()
	set := &wantSet{}
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		name := fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			for _, e := range splitQuoted(t, name, i+1, m[1]) {
				re, err := regexp.Compile(e.pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, e.pattern, err)
				}
				set.list = append(set.list, &wantExpectation{file: name, line: i + 1, re: re, count: e.count})
			}
		}
	}
	return set
}

// A rawWant is one parsed expectation: the regexp source and its count.
type rawWant struct {
	pattern string
	count   int
}

// splitQuoted extracts the quoted regexps of one want comment, each
// optionally followed by a decimal repeat count.
func splitQuoted(t *testing.T, file string, line int, s string) []rawWant {
	t.Helper()
	var out []rawWant
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s:%d: malformed want comment near %q", file, line, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s:%d: unterminated want pattern", file, line)
		}
		pattern, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %s: %v", file, line, s[:end+1], err)
		}
		s = strings.TrimSpace(s[end+1:])
		count := 1
		if len(s) > 0 && s[0] >= '0' && s[0] <= '9' {
			num := s
			if sp := strings.IndexByte(s, ' '); sp >= 0 {
				num, s = s[:sp], strings.TrimSpace(s[sp+1:])
			} else {
				s = ""
			}
			count, err = strconv.Atoi(num)
			if err != nil || count < 1 {
				t.Fatalf("%s:%d: bad want count %q", file, line, num)
			}
		}
		out = append(out, rawWant{pattern: pattern, count: count})
	}
	return out
}

func (ws *wantSet) match(pos token.Position, message string) bool {
	for _, w := range ws.list {
		if w.hits < w.count && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(message) {
			w.hits++
			return true
		}
	}
	return false
}

// reportUnmatched flags every under-matched expectation and reports
// whether any were found.
func (ws *wantSet) reportUnmatched(t *testing.T) bool {
	t.Helper()
	found := false
	for _, w := range ws.list {
		if w.hits < w.count {
			t.Errorf("%s:%d: %d of %d diagnostics matched want %q", w.file, w.line, w.hits, w.count, w.re)
			found = true
		}
	}
	return found
}

// A diagLine is one got-side entry of the diff.
type diagLine struct {
	file string
	line int
	text string
}

// diff renders the full got-vs-want table sorted by position, one line
// per entry, for mismatch reports.
func (ws *wantSet) diff(got []diagLine) string {
	type row struct {
		file string
		line int
		text string
	}
	var rows []row
	for _, g := range got {
		rows = append(rows, row{g.file, g.line, fmt.Sprintf("got:  %s", g.text)})
	}
	for _, w := range ws.list {
		text := fmt.Sprintf("want: %v", w.re)
		if w.count > 1 {
			text = fmt.Sprintf("%s x%d", text, w.count)
		}
		rows = append(rows, row{w.file, w.line, text})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].file != rows[j].file {
			return rows[i].file < rows[j].file
		}
		if rows[i].line != rows[j].line {
			return rows[i].line < rows[j].line
		}
		// want sorts after got on the same line.
		return strings.HasPrefix(rows[i].text, "got:") && strings.HasPrefix(rows[j].text, "want:")
	})
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s:%d: %s\n", filepath.Base(r.file), r.line, r.text)
	}
	return b.String()
}
