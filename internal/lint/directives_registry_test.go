package lint

import (
	"strings"
	"testing"
)

// TestDirectiveRegistry pins the registry's internal consistency: it
// holds exactly the four directives the kept analyzers read, the
// directive constants the analyzers match against agree with the
// registry names, and every entry is renderable in a finding.
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
	for _, name := range []string{"allow", "aggregate", "immutable", "shared"} {
		if !seen[name] {
			t.Errorf("registry lacks //dimred:%s", name)
		}
	}
	if len(seen) != 4 {
		t.Errorf("registry holds %d directives, want 4: %v", len(seen), seen)
	}

	// The constants the consuming analyzers match with must round-trip
	// through the registry, or the two views of "known" drift apart.
	for directive, name := range map[string]string{
		ImmutableDirective: "immutable",
		SharedDirective:    "shared",
		AggregateDirective: "aggregate",
	} {
		if directive != directivePrefix+name {
			t.Errorf("directive constant %q does not match registry name %q", directive, name)
		}
		if directiveByName(name) == nil {
			t.Errorf("constant %q has no registry entry %q", directive, name)
		}
	}

	if directiveByName("immutible") != nil {
		t.Error("directiveByName accepted a misspelling")
	}
}
