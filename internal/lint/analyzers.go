package lint

// All returns every analyzer the dimredlint multichecker bundles, with
// the repository's default configuration: the domain-invariant passes
// (the dataflow-powered purity/nowflow/lockfield trio among them), the
// interprocedural call-graph passes (snapalias, clonecheck, and the
// concurrency-soundness wall of lockorder, gospawn and publishcheck),
// and the directive hygiene pass (unknowndirective, fed every bundled
// analyzer name so it can validate //dimred:allow targets).
func All() []*Analyzer {
	as := []*Analyzer{
		NewWallclock(DefaultWallclockRestricted),
		NewAtomicField(),
		NewInvariantCall(DefaultInvariantConfig),
		NewErrwrap(),
		NewPurity(),
		NewNowflow(DefaultNowflowRestricted),
		NewLockField(),
		NewSnapAlias(),
		NewCloneCheck(),
		NewLockOrder(),
		NewGoSpawn(),
		NewPublishCheck(),
	}
	names := make([]string, 0, len(as)+1)
	for _, a := range as {
		names = append(names, a.Name)
	}
	names = append(names, "unknowndirective")
	return append(as, NewUnknownDirective(names))
}
