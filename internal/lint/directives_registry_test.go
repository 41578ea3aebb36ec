package lint

import (
	"strings"
	"testing"
)

// TestDirectiveRegistry pins the registry's internal consistency: it
// holds exactly the two directives the kept analyzers read, the
// directive constant purity matches against agrees with the registry
// name, and every entry is renderable in a finding.
func TestDirectiveRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range knownDirectives {
		if spec.name == "" || strings.ContainsAny(spec.name, " \t") {
			t.Errorf("registry entry %q: names must be single tokens", spec.name)
		}
		if seen[spec.name] {
			t.Errorf("duplicate registry entry %q", spec.name)
		}
		seen[spec.name] = true
		if len(spec.contexts) == 0 {
			t.Errorf("//dimred:%s has no valid context", spec.name)
		}
		if spec.where == "" {
			t.Errorf("//dimred:%s has no position description for findings", spec.name)
		}
		if directiveByName(spec.name) == nil {
			t.Errorf("directiveByName(%q) = nil", spec.name)
		}
	}
	for _, name := range []string{"allow", "aggregate"} {
		if !seen[name] {
			t.Errorf("registry lacks //dimred:%s", name)
		}
	}
	if len(seen) != 2 {
		t.Errorf("registry holds %d directives, want 2: %v", len(seen), seen)
	}

	// The constant purity matches with must round-trip through the
	// registry, or the two views of "known" drift apart.
	if AggregateDirective != directivePrefix+"aggregate" {
		t.Errorf("directive constant %q does not match registry name %q", AggregateDirective, "aggregate")
	}

	if directiveByName("agregate") != nil {
		t.Error("directiveByName accepted a misspelling")
	}
}
