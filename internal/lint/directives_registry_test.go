package lint

import (
	"strings"
	"testing"
)

// TestDirectiveRegistry pins the registry's internal consistency: the
// directive constants the analyzers match against must agree with the
// registry names, every entry must be renderable in a finding, and the
// reason-ownership escape (shared → clonecheck) must point at a real
// analyzer.
func TestDirectiveRegistry(t *testing.T) {
	analyzerNames := map[string]bool{}
	for _, a := range All() {
		analyzerNames[a.Name] = true
	}

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
		if spec.reasonOwner != "" {
			if !spec.wantsReason {
				t.Errorf("//dimred:%s has a reason owner but wants no reason", spec.name)
			}
			if !analyzerNames[spec.reasonOwner] {
				t.Errorf("//dimred:%s reason owner %q is not a registered analyzer", spec.name, spec.reasonOwner)
			}
		}
		if directiveByName(spec.name) == nil {
			t.Errorf("directiveByName(%q) = nil", spec.name)
		}
	}

	// The constants the consuming analyzers match with must round-trip
	// through the registry, or the two views of "known" drift apart.
	for directive, name := range map[string]string{
		ImmutableDirective: "immutable",
		SharedDirective:    "shared",
		AggregateDirective: "aggregate",
		DetachedDirective:  "detached",
		ReplayDirective:    "replay",
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
