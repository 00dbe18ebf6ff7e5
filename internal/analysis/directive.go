package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// Suppression directives.
//
// Two comment forms silence diagnostics, both requiring a reason:
//
//	//xemem:allow <analyzer> -- <reason>
//	//xemem:wallclock -- <reason>
//
// A directive written at the end of a code line suppresses that line's
// findings; a directive on a line of its own (including the last line of
// a doc comment) suppresses the line below it. Determinism findings are
// special-cased: only host-clock reads may be excused, as deliberate
// wall-clock measurement via //xemem:wallclock, so //xemem:allow is
// rejected for them, and a wallclock directive leaves the analyzer's
// other findings (math/rand, process identity, go statements) standing
// on its line. Malformed directives (missing
// " -- ", empty reason, unknown analyzer or verb) are themselves
// reported under the "directive" name and cannot be suppressed.

const (
	allowPrefix     = "//xemem:allow"
	wallclockPrefix = "//xemem:wallclock"
)

// ParseDirective parses one comment's //xemem: directive. known is the
// analyzer-name vocabulary //xemem:allow accepts. For a well-formed
// directive it returns the analyzer silenced and the reason; for a
// malformed one errMsg is non-empty (the text of the unsuppressible
// finding); for a comment that is no directive at all, every result is
// empty. It never panics, whatever the input: the directive parser sits
// on the trust boundary between source comments and the suppression
// index, so it is fuzzed (FuzzDirective).
func ParseDirective(text string, known map[string]bool) (analyzer, reason, errMsg string) {
	if !strings.HasPrefix(text, "//xemem:") {
		return "", "", ""
	}
	var body string
	switch {
	case strings.HasPrefix(text, wallclockPrefix):
		analyzer = "determinism"
		body = strings.TrimSpace(strings.TrimPrefix(text, wallclockPrefix))
	case strings.HasPrefix(text, allowPrefix):
		body = strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
		analyzer, body, _ = strings.Cut(body, " ")
		body = strings.TrimSpace(body)
		switch {
		case analyzer == "" || strings.HasPrefix(analyzer, "--"):
			return "", "", "//xemem:allow needs an analyzer name: //xemem:allow <analyzer> -- <reason>"
		case analyzer == "determinism":
			return "", "", "determinism findings may only be excused via //xemem:wallclock -- <reason>"
		case !known[analyzer]:
			return "", "", fmt.Sprintf("//xemem:allow names unknown analyzer %q", analyzer)
		}
	default:
		return "", "", fmt.Sprintf("unknown //xemem: directive %q", firstField(text))
	}
	reason, ok := strings.CutPrefix(body, "--")
	if !ok || strings.TrimSpace(reason) == "" {
		return "", "", "//xemem: directive needs a ' -- <reason>' explaining the exception"
	}
	return analyzer, strings.TrimSpace(reason), ""
}

// suppressions indexes which analyzers are silenced on which
// (root-relative) file lines, plus the diagnostics produced by
// malformed directives.
type suppressions struct {
	byLine map[lineKey]map[string]bool
	errors []Diagnostic
}

type lineKey struct {
	file string
	line int
}

func (s *suppressions) suppressed(d Diagnostic) bool {
	if d.Analyzer == "determinism" && !d.hostClock {
		return false
	}
	return s.byLine[lineKey{d.Pos.Filename, d.Pos.Line}][d.Analyzer]
}

func (s *suppressions) add(file string, line int, analyzer string) {
	k := lineKey{file, line}
	if s.byLine[k] == nil {
		s.byLine[k] = make(map[string]bool)
	}
	s.byLine[k][analyzer] = true
}

func (s *suppressions) errorf(pos token.Position, format string, args ...any) {
	s.errors = append(s.errors, Diagnostic{Pos: pos, Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
}

// collect scans one package's comments for //xemem: directives and adds
// them to the index.
func (s *suppressions) collect(m *Module, pkg *Package, known map[string]bool) {
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				s.directive(m, c.Pos(), c.Text, known)
			}
		}
	}
}

// directive parses one comment, recording a suppression or an error.
func (s *suppressions) directive(m *Module, pos token.Pos, text string, known map[string]bool) {
	if !strings.HasPrefix(text, "//xemem:") {
		return
	}
	p := m.Position(pos)
	analyzer, _, errMsg := ParseDirective(text, known)
	if errMsg != "" {
		s.errorf(p, "%s", errMsg)
		return
	}
	s.add(p.Filename, p.Line, analyzer)
	if wholeLine(m, p) {
		s.add(p.Filename, p.Line+1, analyzer)
	}
}

// wholeLine reports whether the directive at p is the only thing on its
// source line (i.e. a standalone comment, whose suppression applies to
// the line below).
func wholeLine(m *Module, p token.Position) bool {
	line := m.Line(p.Filename, p.Line)
	return strings.HasPrefix(strings.TrimSpace(line), "//")
}

func firstField(text string) string {
	if f := strings.Fields(text); len(f) > 0 {
		return f[0]
	}
	return text
}
