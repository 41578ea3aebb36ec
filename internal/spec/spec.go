package spec

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dimred/internal/caltime"
	"dimred/internal/mdm"
	"dimred/internal/prover"
)

// Spec is a data reduction specification V = (A, <=_V): a set of actions
// with the granularity order. A Spec always satisfies NonCrossing and
// Growing: the constructors and the insert/delete operators reject
// updates that would violate them, per Definitions 3 and 4.
type Spec struct {
	// Shared by Clone: the schema environment is frozen after
	// construction, and every Spec over a schema shares one Env.
	env     *Env
	actions []*Action
	// gen counts committed mutations of the action set. commit is the
	// only writer of actions outside Clone, and it bumps gen with every
	// write.
	gen uint64
	// memo is the slot for what is derived from exactly this action set
	// (the compiled specexec program). An action set never changes, it is
	// replaced: commit replaces the slot with it, Clone shares both.
	// Shared by Clone: the slot belongs to the action set, not to the
	// Spec; it is filled once, atomically, and commit replaces the
	// pointer instead of writing through it.
	memo *atomic.Value
}

// Memo returns the slot for the one value derived from the current
// action set: empty after every committed mutation, shared with every
// Clone taken since. Its users (package specexec) fill it with
// CompareAndSwap(nil, v) and never write it again.
func (s *Spec) Memo() *atomic.Value { return s.memo }

// Generation returns the specification's mutation generation: it
// increases on every committed Insert or Delete and never otherwise, so
// an unchanged generation (for the same *Spec) guarantees an unchanged
// action set. Reads and mutations must be externally synchronized, as
// for the action set itself (the warehouse holds its write lock across
// mutators).
func (s *Spec) Generation() uint64 { return s.gen }

// commit is the one place the action set changes (Definitions 3 and 4):
// the candidate replaces it only if it is NonCrossing and Growing and
// admit, the operator's own last condition (nil for none), accepts; the
// generation is bumped and the memo slot replaced with the assignment.
// On any error the specification is untouched. op names the operator in
// the error.
func (s *Spec) commit(op string, candidate []*Action, admit func() error) error {
	if err := CheckNonCrossing(s.env, candidate); err != nil {
		return fmt.Errorf("spec: %s rejected: %w", op, err)
	}
	if err := CheckGrowing(s.env, candidate); err != nil {
		return fmt.Errorf("spec: %s rejected: %w", op, err)
	}
	if admit != nil {
		if err := admit(); err != nil {
			return err
		}
	}
	s.actions = candidate
	s.gen++
	s.memo = new(atomic.Value)
	return nil
}

// Empty returns a specification with no actions.
func Empty(env *Env) *Spec {
	return &Spec{env: env, memo: new(atomic.Value)}
}

// New builds a specification from the given actions, verifying
// NonCrossing and Growing.
func New(env *Env, actions ...*Action) (*Spec, error) {
	s := Empty(env)
	if err := s.Insert(actions...); err != nil {
		return nil, err
	}
	return s, nil
}

// Clone returns an independent specification with the same action set,
// the same generation and the same memo slot. Compiled actions are
// immutable, so the clone shares them — and with them whatever either
// side derives from them; the action slice itself is copied, and later
// mutations of either specification leave the other untouched. The
// generation carries over so that lockstep mutations of two clones keep
// their generations equal.
func (s *Spec) Clone() *Spec {
	return &Spec{env: s.env, actions: append([]*Action(nil), s.actions...), gen: s.gen, memo: s.memo}
}

// Env returns the schema environment the specification is bound to.
func (s *Spec) Env() *Env { return s.env }

// Actions returns the current action set. The caller must not modify the
// returned slice.
func (s *Spec) Actions() []*Action { return s.actions }

// ActionByName looks up an action.
func (s *Spec) ActionByName(name string) (*Action, bool) {
	for _, a := range s.actions {
		if a.name == name {
			return a, true
		}
	}
	return nil, false
}

// Insert is the insert-operator of Definition 3: it adds the whole set of
// new actions if the resulting specification is Growing and NonCrossing,
// and leaves the specification unchanged otherwise (returning the reason).
func (s *Spec) Insert(newActions ...*Action) error {
	for _, a := range newActions {
		if a == nil {
			return fmt.Errorf("spec: Insert: nil action")
		}
		if a.env != s.env {
			return fmt.Errorf("spec: Insert: action %s compiled against a different environment", a.name)
		}
		if _, dup := s.ActionByName(a.name); dup {
			return fmt.Errorf("spec: Insert: duplicate action name %q", a.name)
		}
	}
	for i, a := range newActions {
		for _, b := range newActions[i+1:] {
			if a.name == b.name {
				return fmt.Errorf("spec: Insert: duplicate action name %q", a.name)
			}
		}
	}
	return s.commit("Insert", append(append([]*Action(nil), s.actions...), newActions...), nil)
}

// Delete is the delete-operator of Definition 4 at time t: the named
// actions are removed together if (a) the remaining specification is
// still Growing and NonCrossing, and (b) none of the removed actions is
// currently responsible for the aggregation level of any fact in the MO.
// Otherwise the specification is unchanged and the reason is returned.
func (s *Spec) Delete(mo *mdm.MO, t caltime.Day, names ...string) error {
	doomed := make(map[string]bool, len(names))
	var removed []*Action
	for _, n := range names {
		a, ok := s.ActionByName(n)
		if !ok {
			return fmt.Errorf("spec: Delete: no action %q", n)
		}
		if !doomed[n] {
			doomed[n] = true
			removed = append(removed, a)
		}
	}
	var remaining []*Action
	for _, a := range s.actions {
		if !doomed[a.name] {
			remaining = append(remaining, a)
		}
	}
	// Responsibility check against the facts actually in the MO: for
	// every fact whose direct cell satisfies a removed action's
	// predicate, either the fact is already at a granularity strictly
	// above the action's target, or a remaining action with the same
	// target granularity also selects it.
	responsible := func() error {
		if mo == nil {
			return nil
		}
		for _, a := range removed {
			for f := 0; f < mo.Len(); f++ {
				cell := mo.Refs(mdm.FactID(f))
				if !a.SatisfiedBy(cell, t) {
					continue
				}
				gran := mo.Gran(mdm.FactID(f))
				if s.env.Schema.GranLE(a.target, gran) && !s.env.Schema.GranEq(a.target, gran) {
					continue // already aggregated beyond a's level
				}
				substituted := false
				for _, b := range remaining {
					if s.env.Schema.GranEq(b.target, a.target) && b.SatisfiedBy(cell, t) {
						substituted = true
						break
					}
				}
				if !substituted {
					return fmt.Errorf("spec: Delete rejected: action %s is responsible for fact %s at %s",
						a.name, mo.Name(mdm.FactID(f)), t)
				}
			}
		}
		return nil
	}
	return s.commit("Delete", remaining, responsible)
}

// AggLevel returns AggLevel_i for every dimension (Eq. 13): for the
// given cell at time t, the highest category each dimension is
// aggregated to by any satisfied action, bottoming out at the cell's
// own granularity. The second result names, per dimension, the action
// responsible for that level (nil where the cell's own granularity
// prevails), supporting the paper's requirement that users can be told
// why data is aggregated the way it is.
func (s *Spec) AggLevel(cell []mdm.ValueID, t caltime.Day) (mdm.Granularity, []*Action) {
	n := len(s.env.Schema.Dims)
	level := make(mdm.Granularity, n)
	resp := make([]*Action, n)
	for i, d := range s.env.Schema.Dims {
		level[i] = d.CategoryOf(cell[i])
	}
	for _, a := range s.actions {
		if a.isDelete || !a.SatisfiedBy(cell, t) {
			continue
		}
		for i, d := range s.env.Schema.Dims {
			if d.CatLE(level[i], a.target[i]) && level[i] != a.target[i] {
				level[i] = a.target[i]
				resp[i] = a
			}
		}
	}
	return level, resp
}

// DeletedBy returns the first deletion action whose predicate the cell
// satisfies at time t, or nil. Deletion dominates aggregation: a cell
// selected by a deletion action is physically removed regardless of
// other actions.
func (s *Spec) DeletedBy(cell []mdm.ValueID, t caltime.Day) *Action {
	for _, a := range s.actions {
		if a.isDelete && a.SatisfiedBy(cell, t) {
			return a
		}
	}
	return nil
}

// Explain renders, for a cell at time t, which actions apply and what
// each dimension's aggregation level is — the paper's requirement that
// users can be told "why data is aggregated the way it is" (Section 4).
func (s *Spec) Explain(cell []mdm.ValueID, t caltime.Day) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell (")
	for i, d := range s.env.Schema.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.ValueName(cell[i]))
	}
	fmt.Fprintf(&b, ") at %s:\n", t)
	if del := s.DeletedBy(cell, t); del != nil {
		fmt.Fprintf(&b, "  physically deleted by action %s\n", del.Name())
		return b.String()
	}
	level, resp := s.AggLevel(cell, t)
	for i, d := range s.env.Schema.Dims {
		fmt.Fprintf(&b, "  %s -> %s", d.Name(), d.Category(level[i]).Name)
		if resp[i] != nil {
			fmt.Fprintf(&b, " (by action %s)", resp[i].Name())
		} else {
			b.WriteString(" (own granularity)")
		}
		b.WriteByte('\n')
	}
	for _, a := range s.actions {
		if !a.isDelete && a.SatisfiedBy(cell, t) {
			fmt.Fprintf(&b, "  satisfies %s\n", a)
		}
	}
	return b.String()
}

// String renders the specification, one action per line.
func (s *Spec) String() string {
	var b strings.Builder
	for _, a := range s.actions {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckNonCrossing verifies the NonCrossing property (Eq. 14) over an
// action set, using the operational algorithm of Section 5.2: for every
// unordered pair, decide whether a time exists at which both predicates
// select a common cell.
func CheckNonCrossing(env *Env, actions []*Action) error {
	hz, ok := env.Horizon(actions)
	for i, a := range actions {
		for _, b := range actions[i+1:] {
			if LessEq(a, b) || LessEq(b, a) {
				continue // ordered: crossing impossible
			}
			if !ok {
				// No temporal information: predicates are either
				// time-free or vacuous; check a single instant.
				hz = prover.Horizon{Min: 0, Max: 0}
			}
			overlap, at := overlapAnyDisjunct(env, a, b, hz)
			if overlap {
				return fmt.Errorf("noncrossing violated: actions %s and %s are unordered but overlap at %s (targets %s vs %s)",
					a.name, b.name, at, a.DescribeTargets(), b.DescribeTargets())
			}
		}
	}
	return nil
}

// ActionsOverlap reports whether two actions' predicates can select a
// common cell at some time — the building block of the NonCrossing check,
// exported for the subcube engine's parent/child analysis.
func ActionsOverlap(env *Env, a, b *Action) bool {
	hz, ok := env.Horizon([]*Action{a, b})
	if !ok {
		hz = prover.Horizon{Min: 0, Max: 0}
	}
	overlap, _ := overlapAnyDisjunct(env, a, b, hz)
	return overlap
}

// ActionFeeds reports whether a cell selected by action a at some time t
// can be selected by action b at t+1 — the migration-edge criterion of
// the subcube DAG: when a's (shrinking) predicate releases a cell, b's
// predicate catches it the next day even though the two regions never
// overlap at the same instant.
func ActionFeeds(env *Env, a, b *Action) bool {
	hz, ok := env.Horizon([]*Action{a, b})
	if !ok {
		hz = prover.Horizon{Min: 0, Max: 0}
	}
	universes := env.Universes()
	for _, ra := range a.Regions() {
		for _, rb := range b.Regions() {
			if ok, _ := prover.OverlapsShifted(ra, rb, 1, hz, universes); ok {
				return true
			}
		}
	}
	return false
}

func overlapAnyDisjunct(env *Env, a, b *Action, hz prover.Horizon) (bool, caltime.Day) {
	universes := env.Universes()
	for _, ra := range a.Regions() {
		for _, rb := range b.Regions() {
			if ok, at := prover.Overlaps(ra, rb, hz, universes); ok {
				return true, at
			}
		}
	}
	return false, 0
}

// CheckGrowing verifies the Growing property (Eq. 17) over an action
// set, following Section 5.3: growing actions (boundary categories A-E)
// are accepted by Theorem 1; for each non-growing action a (categories
// F-H) the Eq. 23 obligation is discharged — every cell a selects at
// time t must, at time t+1, still be selected by a or by an action
// aggregating at least as high (the candidate set A' = {a_j | a <=_V
// a_j}). The obligation is decided exactly over the model's horizon.
func CheckGrowing(env *Env, actions []*Action) error {
	return checkGrowing(env, actions, true)
}

// CheckGrowingExhaustive runs the Growing check without the Theorem 1
// shortcut, discharging the coverage obligation for every action
// including the provably-growing ones. It exists to measure what the
// theorem saves (see the ablation benchmarks); its verdicts always
// match CheckGrowing's.
func CheckGrowingExhaustive(env *Env, actions []*Action) error {
	return checkGrowing(env, actions, false)
}

func checkGrowing(env *Env, actions []*Action, useTheorem1 bool) error {
	hz, ok := env.Horizon(actions)
	if !ok {
		return nil // no temporal information: vacuously growing
	}
	universes := env.Universes()
	for _, a := range actions {
		if useTheorem1 && a.Growing() {
			continue
		}
		// Candidate covers: a itself tomorrow, plus every action
		// aggregating at least as high.
		var covers []prover.Region
		for _, b := range actions {
			if LessEq(a, b) {
				covers = append(covers, b.Regions()...)
			}
		}
		for _, ra := range a.Regions() {
			for t := hz.SweepStart(); t <= hz.SweepEnd(); t++ {
				if !prover.CoversAtTimes(ra, t, covers, t+1, hz, universes) {
					return fmt.Errorf("growing violated: cells selected by action %s at %s are no longer aggregated to %s at %s",
						a.name, t, a.DescribeTargets(), t+1)
				}
			}
		}
	}
	return nil
}
