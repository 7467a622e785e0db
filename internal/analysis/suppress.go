package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A suppression silences one or more analyzers on the line the comment
// trails, or on the line immediately below a comment that stands alone:
//
//	x := a == b //lint:ignore floatcmp bit-exact replay check
//
//	//lint:ignore norand import cycle: rng depends on mat
//	import "math/rand/v2"
//
// The analyzer list may name several analyzers separated by commas
// (spaces after the commas are tolerated). A reason is mandatory; a
// directive without one is itself reported, and so is a directive naming
// an analyzer that does not exist — a typoed name would otherwise
// silence nothing while looking like a waiver.
type suppression struct {
	analyzers map[string]bool
	file      string
	line      int
	reason    string
}

type suppressionSet struct {
	entries []suppression
	// meta holds directive-hygiene diagnostics (malformed directives,
	// unknown analyzer names) reported under the "pbolint" analyzer.
	meta []Diagnostic
}

const ignoreDirective = "//lint:ignore"

// knownAnalyzerNames is the set a directive may legally name: every
// registered analyzer plus "pbolint" itself, the name under which
// directive-hygiene diagnostics are reported.
func knownAnalyzerNames() map[string]bool {
	known := map[string]bool{"pbolint": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	set := &suppressionSet{}
	known := knownAnalyzerNames()
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignoreDirective))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				// A comma list with spaces splits the analyzer names across
				// the first Cut: keep consuming words while the name part
				// still ends in a comma, so "a, b reason" parses as
				// analyzers {a, b} with reason "reason".
				for strings.HasSuffix(name, ",") && reason != "" {
					next, restReason, _ := strings.Cut(reason, " ")
					name += next
					reason = strings.TrimSpace(restReason)
				}
				// A name list of commas and blanks names nothing: it is as
				// malformed as a missing one.
				var names []string
				for _, n := range strings.Split(name, ",") {
					if n = strings.TrimSpace(n); n != "" {
						names = append(names, n)
					}
				}
				if len(names) == 0 || reason == "" {
					set.meta = append(set.meta, Diagnostic{
						Pos:      pos,
						Analyzer: "pbolint",
						Message:  "malformed directive: want //lint:ignore <analyzers> <reason>",
					})
					continue
				}
				s := suppression{analyzers: map[string]bool{}, file: pos.Filename, line: pos.Line, reason: reason}
				for _, n := range names {
					if !known[n] {
						set.meta = append(set.meta, Diagnostic{
							Pos:      pos,
							Analyzer: "pbolint",
							Message:  "directive names unknown analyzer " + strconvQuote(n) + ": it suppresses nothing",
						})
						continue
					}
					s.analyzers[n] = true
				}
				if len(s.analyzers) > 0 {
					set.entries = append(set.entries, s)
				}
			}
		}
	}
	return set
}

// strconvQuote is a tiny local quoting helper; the message layer avoids a
// strconv import for a single call site.
func strconvQuote(s string) string { return `"` + s + `"` }

// suppresses reports whether a diagnostic from the named analyzer at pos
// is covered by a directive on the same or the preceding line. A
// standalone directive separated from its target by a blank line covers
// nothing — the binding is deliberately tight so a drifting comment
// cannot silently widen a waiver.
func (s *suppressionSet) suppresses(analyzer string, pos token.Position) bool {
	for _, e := range s.entries {
		if e.file != pos.Filename || !e.analyzers[analyzer] {
			continue
		}
		if e.line == pos.Line || e.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// Suppression is one live //lint:ignore directive, as inventoried by
// Suppressions for the -suppressions waiver report.
type Suppression struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
}

// Suppressions inventories every well-formed //lint:ignore directive in
// the package, sorted by position. Malformed directives are excluded —
// they are diagnostics, not waivers.
func Suppressions(pkg *Package) []Suppression {
	set := collectSuppressions(pkg.Fset, pkg.Files)
	out := make([]Suppression, 0, len(set.entries))
	for _, e := range set.entries {
		names := make([]string, 0, len(e.analyzers))
		for n := range e.analyzers {
			names = append(names, n)
		}
		sort.Strings(names)
		out = append(out, Suppression{File: e.file, Line: e.line, Analyzers: names, Reason: e.reason})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}
