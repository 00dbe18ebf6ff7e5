package analysis_test

import (
	"strings"
	"testing"

	"xemem/internal/analysis"
)

// knownSet mirrors the driver's directive vocabulary.
func knownSet() map[string]bool {
	known := make(map[string]bool)
	for _, name := range analysis.Names() {
		known[name] = true
	}
	return known
}

// TestParseDirective pins the verb-to-analyzer mapping and the error
// texts fixture tests match against.
func TestParseDirective(t *testing.T) {
	known := knownSet()
	tests := []struct {
		text             string
		analyzer, reason string
		errSubstr        string
	}{
		{"// ordinary comment", "", "", ""},
		{"//xemem:allow maporder -- unordered by design", "maporder", "unordered by design", ""},
		{"//xemem:allow paircheck --  padded  ", "paircheck", "padded", ""},
		{"//xemem:wallclock -- timing the host build", "determinism", "timing the host build", ""},
		{"//xemem:allow maporder", "", "", "needs a ' -- <reason>'"},
		{"//xemem:allow maporder -- ", "", "", "needs a ' -- <reason>'"},
		{"//xemem:allow -- no analyzer", "", "", "needs an analyzer name"},
		{"//xemem:allow frobcheck -- nope", "", "", `unknown analyzer "frobcheck"`},
		{"//xemem:allow determinism -- nope", "", "", "only be excused via //xemem:wallclock"},
		{"//xemem:allow snapshotcheck -- nope", "", "", `unknown analyzer "snapshotcheck"`},
		{"//xemem:wallclock", "", "", "needs a ' -- <reason>'"},
		{"//xemem:frobnicate -- nonsense", "", "", `unknown //xemem: directive`},
	}
	for _, tt := range tests {
		analyzer, reason, errMsg := analysis.ParseDirective(tt.text, known)
		if analyzer != tt.analyzer || reason != tt.reason {
			t.Errorf("ParseDirective(%q) = (%q, %q), want (%q, %q)", tt.text, analyzer, reason, tt.analyzer, tt.reason)
		}
		if tt.errSubstr == "" && errMsg != "" {
			t.Errorf("ParseDirective(%q): unexpected error %q", tt.text, errMsg)
		}
		if tt.errSubstr != "" && !strings.Contains(errMsg, tt.errSubstr) {
			t.Errorf("ParseDirective(%q): error %q, want substring %q", tt.text, errMsg, tt.errSubstr)
		}
	}
}

// FuzzDirective hammers the directive parser: whatever the comment
// text, it must never panic, and the result must be exactly one of
// {no directive, well-formed suppression, unsuppressible finding}.
// The parser sits on the trust boundary between arbitrary source
// comments and the suppression index, so a malformed directive must
// always surface as a finding — never as a silent suppression.
func FuzzDirective(f *testing.F) {
	f.Add("//xemem:allow maporder -- reason")
	f.Add("//xemem:allow determinism -- sneak")
	f.Add("//xemem:allow snapshotcheck -- sneak")
	f.Add("//xemem:wallclock -- bench")
	f.Add("//xemem:")
	f.Add("//xemem:allow")
	f.Add("// not a directive")
	f.Add("//xemem:allow \x00 -- \xff")
	f.Add("//xemem:wallclock--glued")
	f.Add("//xemem:allow partition -- reason")
	known := knownSet()
	f.Fuzz(func(t *testing.T, text string) {
		analyzer, reason, errMsg := analysis.ParseDirective(text, known)
		if !strings.HasPrefix(text, "//xemem:") {
			if analyzer != "" || reason != "" || errMsg != "" {
				t.Fatalf("non-directive %q parsed to (%q, %q, %q)", text, analyzer, reason, errMsg)
			}
			return
		}
		if errMsg != "" {
			if analyzer != "" || reason != "" {
				t.Fatalf("malformed %q still yielded suppression (%q, %q)", text, analyzer, reason)
			}
			return
		}
		// A well-formed directive must name a known analyzer and carry a
		// non-empty reason; determinism is reachable only through its
		// dedicated verb.
		if !known[analyzer] {
			t.Fatalf("directive %q silenced unknown analyzer %q", text, analyzer)
		}
		if strings.TrimSpace(reason) == "" {
			t.Fatalf("directive %q accepted with empty reason", text)
		}
		if strings.HasPrefix(text, "//xemem:allow") && analyzer == "determinism" {
			t.Fatalf("//xemem:allow reached %s: %q", analyzer, text)
		}
	})
}
