package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseForSuppress parses one synthetic file and collects its directives.
func parseForSuppress(t *testing.T, src string) (*token.FileSet, *suppressionSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, collectSuppressions(fset, []*ast.File{f})
}

func at(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line, Column: 1}
}

func TestSuppressCommaListWithSpaces(t *testing.T) {
	_, set := parseForSuppress(t, `package p

//lint:ignore godiscipline, errcheck legacy shim shared by both checks
func f() {}
`)
	if len(set.meta) != 0 {
		t.Fatalf("unexpected meta diagnostics: %v", set.meta)
	}
	if len(set.entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(set.entries))
	}
	e := set.entries[0]
	if !e.analyzers["godiscipline"] || !e.analyzers["errcheck"] || len(e.analyzers) != 2 {
		t.Errorf("analyzers = %v, want {godiscipline, errcheck}", e.analyzers)
	}
	if e.reason != "legacy shim shared by both checks" {
		t.Errorf("reason = %q: comma-consumed words must not leak into it", e.reason)
	}
	// The directive is on line 3 and covers lines 3 and 4 for both names.
	for _, name := range []string{"godiscipline", "errcheck"} {
		if !set.suppresses(name, at("sup.go", 4)) {
			t.Errorf("%s not suppressed on the directive's next line", name)
		}
	}
	if set.suppresses("norand", at("sup.go", 4)) {
		t.Error("unnamed analyzer suppressed")
	}
}

func TestSuppressCompactCommaList(t *testing.T) {
	_, set := parseForSuppress(t, `package p

//lint:ignore godiscipline,errcheck one reason for both
func f() {}
`)
	if len(set.entries) != 1 || len(set.entries[0].analyzers) != 2 {
		t.Fatalf("entries = %+v, want one entry naming two analyzers", set.entries)
	}
	if set.entries[0].reason != "one reason for both" {
		t.Errorf("reason = %q", set.entries[0].reason)
	}
}

// A standalone directive separated from its target by a blank line binds
// to nothing: neither its own vicinity nor the eventual target.
func TestSuppressBlankLineDoesNotBind(t *testing.T) {
	_, set := parseForSuppress(t, `package p

//lint:ignore godiscipline drifted away from its target

func f() {}
`)
	if len(set.entries) != 1 {
		t.Fatalf("entries = %d, want 1 (the directive itself is well formed)", len(set.entries))
	}
	if set.suppresses("godiscipline", at("sup.go", 5)) {
		t.Error("directive on line 3 suppressed line 5 across a blank line")
	}
	if !set.suppresses("godiscipline", at("sup.go", 4)) {
		t.Error("directive must still cover the (blank) line directly below — binding is by line, not content")
	}
}

// A typoed analyzer name must be reported, not silently ignored: the
// author believes something is waived when nothing is.
func TestSuppressUnknownAnalyzerReported(t *testing.T) {
	_, set := parseForSuppress(t, `package p

//lint:ignore floatcomp tolerance helper predates the analyzer
func f() {}
`)
	if len(set.entries) != 0 {
		t.Errorf("entries = %+v, want none: the only name is unknown", set.entries)
	}
	if len(set.meta) != 1 || !strings.Contains(set.meta[0].Message, `unknown analyzer "floatcomp"`) {
		t.Errorf("meta = %v, want one unknown-analyzer diagnostic", set.meta)
	}
}

// A mixed list keeps the known names working while reporting the typo.
func TestSuppressMixedKnownUnknown(t *testing.T) {
	_, set := parseForSuppress(t, `package p

//lint:ignore errcheck,nosuch best-effort write
func f() {}
`)
	if len(set.meta) != 1 || !strings.Contains(set.meta[0].Message, "unknown analyzer") {
		t.Errorf("meta = %v, want one unknown-analyzer diagnostic", set.meta)
	}
	if len(set.entries) != 1 || !set.entries[0].analyzers["errcheck"] {
		t.Errorf("entries = %+v, want errcheck still waived", set.entries)
	}
}

func TestSuppressMalformedDirectives(t *testing.T) {
	_, set := parseForSuppress(t, `package p

//lint:ignore errcheck
func f() {}

//lint:ignore
func g() {}

//lint:ignore ,	 a reason, but commas and blanks for names
func h() {}
`)
	if len(set.entries) != 0 {
		t.Errorf("entries = %+v, want none", set.entries)
	}
	if len(set.meta) != 3 {
		t.Fatalf("meta = %d diagnostics, want 3 (missing reason; missing everything; no name)", len(set.meta))
	}
	for _, d := range set.meta {
		if !strings.Contains(d.Message, "malformed directive") {
			t.Errorf("unexpected meta diagnostic: %v", d)
		}
	}
	if set.suppresses("errcheck", at("sup.go", 4)) {
		t.Error("reasonless directive suppressed its target")
	}
}

// FuzzSuppressions feeds byte-derived Go source through
// collectSuppressions. Input that does not parse is retried as a file
// whose every line is a //lint:ignore directive followed by that line's
// bytes. Collecting never panics, every directive yields either a
// suppression with a non-empty reason and only known analyzer names or a
// pbolint diagnostic on its line, and no other analyzer reports. The
// seeds are the fixture sources under testdata/src and the directive
// shapes the tests above pin.
func FuzzSuppressions(f *testing.F) {
	if err := filepath.WalkDir(filepath.Join("testdata", "src"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err == nil {
			f.Add(src)
		}
		return err
	}); err != nil {
		f.Fatal(err)
	}
	for _, line := range []string{
		"godiscipline, errcheck legacy shim shared by both checks",
		"godiscipline,errcheck one reason for both",
		"floatcomp typo",
		"errcheck,nosuch best-effort write",
		"errcheck",
		"",
		",\t reason",
		"errcheck,\t reason",
		"errcheck\treason",
	} {
		f.Add([]byte(line))
	}
	known := knownAnalyzerNames()
	f.Fuzz(func(t *testing.T, data []byte) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			var b strings.Builder
			b.WriteString("package p\n")
			for _, line := range strings.Split(string(data), "\n") {
				b.WriteString(ignoreDirective + " " + line + "\n")
			}
			fset = token.NewFileSet()
			if file, err = parser.ParseFile(fset, "fuzz.go", b.String(), parser.ParseComments|parser.SkipObjectResolution); err != nil {
				return
			}
		}
		set := collectSuppressions(fset, []*ast.File{file})
		entries, metas := map[int]bool{}, map[int]bool{}
		for _, e := range set.entries {
			if e.reason == "" || len(e.analyzers) == 0 {
				t.Fatalf("line %d: suppression with reason %q and analyzers %v", e.line, e.reason, e.analyzers)
			}
			for name := range e.analyzers {
				if !known[name] {
					t.Fatalf("line %d: suppression names unknown analyzer %q", e.line, name)
				}
			}
			entries[e.line] = true
		}
		for _, d := range set.meta {
			if d.Analyzer != "pbolint" {
				t.Fatalf("line %d: directive diagnostic under %q", d.Pos.Line, d.Analyzer)
			}
			metas[d.Pos.Line] = true
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if line := fset.Position(c.Pos()).Line; strings.HasPrefix(c.Text, ignoreDirective) && !entries[line] && !metas[line] {
					t.Fatalf("line %d: directive %q yields neither a suppression nor a diagnostic", line, c.Text)
				}
			}
		}
	})
}
