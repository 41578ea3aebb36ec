package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// NewLockOrder builds the lockorder analyzer: deadlock freedom by
// acyclicity of the may-hold-while-acquiring relation.
//
// The lockset dataflow behind lockfield already knows which mutex
// fields are held at every program point — including the *Locked
// convention's callee-side assumption and deferred Unlocks acting on
// the CFG's exit paths. lockorder derives a lock-acquisition graph
// from it: an edge A → B whenever a function acquires B while A is
// held, either directly (b.mu.Lock() under a.mu) or through a call to
// a module function whose transitive may-acquire set contains B. Any
// cycle in that graph is a deadlock two goroutines can realize by
// interleaving, and is reported once per cyclic component with a
// deterministic trace (the walk starts at the lexicographically
// smallest lock and always takes the smallest in-component successor).
//
// Locks are identified per field of a struct type (pkg.Type.field),
// not per instance — the same granularity lockfield guards at. The
// self-edge this produces when two instances of one type are locked
// hand-over-hand is reported as a cycle of length one: instance-
// ordered locking of sibling objects needs an explicit order the
// analysis cannot see, so it is exactly the pattern to review.
// May-acquire sets include locks taken inside function literals —
// a closure that locks runs with whatever its spawner holds on at
// least one interleaving.
func NewLockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc: "the may-hold-while-acquiring relation over mutex fields must stay acyclic; " +
			"a cycle is a deadlock concurrent goroutines can reach",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		lf := m.locks
		if len(lf.acquires) == 0 && len(lf.heldCalls) == 0 {
			return nil
		}
		may := mayAcquireSets(m.graph)

		// The acquisition graph, with the earliest witness per edge.
		type edgeInfo struct {
			unit *Unit
			pos  token.Pos
			posn token.Position
		}
		edges := map[string]map[string]*edgeInfo{}
		addEdge := func(from, to string, u *Unit, pos token.Pos) {
			if edges[from] == nil {
				edges[from] = map[string]*edgeInfo{}
			}
			posn := u.Fset.Position(pos)
			old := edges[from][to]
			if old == nil || posBefore(posn, old.posn) {
				edges[from][to] = &edgeInfo{unit: u, pos: pos, posn: posn}
			}
		}
		for _, aq := range lf.acquires {
			for held := range aq.held {
				addEdge(held, aq.key, aq.unit, aq.pos)
			}
		}
		for _, hc := range lf.heldCalls {
			for to := range may[hc.callee] {
				for held := range hc.held {
					addEdge(held, to, hc.unit, hc.pos)
				}
			}
		}
		if len(edges) == 0 {
			return nil
		}

		var ds []Diagnostic
		for _, scc := range lockSCCs(edges) {
			cyclic := len(scc) > 1 || edges[scc[0]][scc[0]] != nil
			if !cyclic {
				continue
			}
			trace := cycleTrace(scc, edges)
			names := make([]string, len(trace))
			for i, k := range trace {
				names[i] = shortLockKey(k)
			}
			var details []string
			for i := 0; i+1 < len(trace); i++ {
				ei := edges[trace[i]][trace[i+1]]
				details = append(details, fmt.Sprintf("%s -> %s at %s:%d",
					shortLockKey(trace[i]), shortLockKey(trace[i+1]),
					filepath.Base(ei.posn.Filename), ei.posn.Line))
			}
			first := edges[trace[0]][trace[1]]
			ds = append(ds, first.unit.Diag(first.pos,
				"lock-order cycle: %s (%s); acquire these mutexes in one consistent order everywhere",
				strings.Join(names, " -> "), strings.Join(details, ", ")))
		}
		return ds
	}
	return a
}

// mayAcquireSets computes, per function, the mutex field keys its body
// or any transitive module callee may acquire (flow-insensitive,
// function literals included).
func mayAcquireSets(cg *CallGraph) map[string]map[string]bool {
	direct := map[string][]string{}
	for _, key := range cg.keys {
		node := cg.Nodes[key]
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if k, op, ok := mutexOp(node.Unit.Info, call); ok && (op == "Lock" || op == "RLock") {
					direct[key] = append(direct[key], k)
				}
			}
			return true
		})
	}
	may := map[string]map[string]bool{}
	for _, scc := range cg.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				set := may[key]
				if set == nil {
					set = map[string]bool{}
					may[key] = set
				}
				before := len(set)
				for _, k := range direct[key] {
					set[k] = true
				}
				for _, callee := range cg.Nodes[key].Calls {
					for k := range may[callee] {
						set[k] = true
					}
				}
				if len(set) != before {
					changed = true
				}
			}
		}
	}
	return may
}

// lockSCCs returns the acquisition graph's strongly connected
// components, each sorted internally, ordered by their smallest lock
// key (components are disjoint, so the visiting order cannot show).
func lockSCCs[E any](edges map[string]map[string]*E) [][]string {
	seen := map[string]bool{}
	var nodes []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			nodes = append(nodes, k)
		}
	}
	for from, tos := range edges {
		add(from)
		for to := range tos {
			add(to)
		}
	}
	sccs := tarjanSCCs(nodes, func(v string) []string {
		var succ []string
		for to := range edges[v] {
			succ = append(succ, to)
		}
		return succ
	})
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

// cycleTrace walks a cyclic component deterministically: start at the
// smallest key, always take the smallest in-component successor, stop
// when a node repeats, and return the closed cycle (first and last
// element equal).
func cycleTrace[E any](scc []string, edges map[string]map[string]*E) []string {
	inSCC := map[string]bool{}
	for _, k := range scc {
		inSCC[k] = true
	}
	seenAt := map[string]int{}
	path := []string{scc[0]}
	seenAt[scc[0]] = 0
	for {
		cur := path[len(path)-1]
		next := ""
		for to := range edges[cur] {
			if inSCC[to] && (next == "" || to < next) {
				next = to
			}
		}
		if next == "" {
			return path // cannot happen in a cyclic SCC; defensive
		}
		if at, seen := seenAt[next]; seen {
			return append(path[at:], next)
		}
		seenAt[next] = len(path)
		path = append(path, next)
	}
}

// posBefore orders token positions across files.
func posBefore(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// shortLockKey trims the directory part of a pkg.Type.field lock key,
// leaving pkgname.Type.field.
func shortLockKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
