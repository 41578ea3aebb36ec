package lint

// All returns every analyzer the dimredlint multichecker bundles, with
// the repository's default configuration: wallclock, the call-graph
// passes (purity, snapalias, clonecheck), and the directive hygiene pass
// (unknowndirective, fed every bundled analyzer name so it can validate
// //dimred:allow targets).
func All() []*Analyzer {
	as := []*Analyzer{
		NewWallclock(DefaultWallclockRestricted),
		NewPurity(),
		NewSnapAlias(),
		NewCloneCheck(),
	}
	names := make([]string, 0, len(as)+1)
	for _, a := range as {
		names = append(names, a.Name)
	}
	names = append(names, "unknowndirective")
	return append(as, NewUnknownDirective(names))
}
