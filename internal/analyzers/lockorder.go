package analyzers

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder detects potential deadlocks statically: it builds a
// module-wide lock-acquisition graph — an edge A → B for every
// Lock()/RLock() of class B at a site where class A is provably held —
// and reports every cycle. Held sets come from the shared lockflow
// dataflow over each function's CFG, seeded with the caller-held locks
// the //pinlint:holds annotation and the xxxLocked naming convention
// assert, so an ordering established across a call boundary
// (MultiTuner.mu held entering attachToLocked, which takes
// mtChannel.mu) still contributes its edge.
//
// Locks are grouped by class: every instance of Station.mu is one
// node, because two instances of the same field are exactly the two
// sides of an AB/BA deadlock. A self-cycle (acquiring an instance of a
// class while holding another instance of the same class) is therefore
// reported too, unless waived with an explicit instance-ordering
// justification.
//
// The analysis is intra-procedural plus annotations: a callee that
// acquires locks while its caller holds others contributes edges only
// if it is annotated //pinlint:holds (or named xxxLocked). That is the
// codebase's locking convention already, and lockcheck enforces the
// field-access side of it.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "report cycles in the module-wide mutex acquisition graph",
	Run:  runLockOrder,
}

// lockEdge is one acquisition ordering observed in the module: `to`
// was locked at pos (inside fn) while `from` was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       string
}

// lockGraph is the module-wide acquisition graph, built once per load
// and cached on the Index.
type lockGraph struct {
	// edges[from][to] holds the first site that established the order.
	edges map[string]map[string]lockEdge
}

func runLockOrder(pass *Pass) error {
	g := pass.Index.lockOrderGraph()
	local := map[string]bool{}
	for _, f := range pass.Files {
		local[pass.Fset.Position(f.Pos()).Filename] = true
	}
	for _, cycle := range g.cycles() {
		// Anchor each cycle at its lexically first edge so the module-
		// wide finding is reported exactly once, by whichever package
		// owns that site.
		anchor := cycle[0]
		for _, e := range cycle[1:] {
			if posLess(pass.Fset, e.pos, anchor.pos) {
				anchor = e
			}
		}
		if !local[pass.Fset.Position(anchor.pos).Filename] {
			continue
		}
		pass.Reportf(anchor.pos, "lock-order cycle: %s", describeCycle(pass.Fset, cycle))
	}
	return nil
}

func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// describeCycle renders "A → B → A (B locked with A held in F at
// file:line; ...)".
func describeCycle(fset *token.FileSet, cycle []lockEdge) string {
	var ring, sites strings.Builder
	for i, e := range cycle {
		if i == 0 {
			ring.WriteString(e.from)
		}
		ring.WriteString(" -> ")
		ring.WriteString(e.to)
		if i > 0 {
			sites.WriteString("; ")
		}
		p := fset.Position(e.pos)
		fmt.Fprintf(&sites, "%s locked with %s held in %s at %s:%d",
			e.to, e.from, e.fn, filepath.Base(p.Filename), p.Line)
	}
	return ring.String() + " (" + sites.String() + ")"
}

// lockOrderGraph builds (once) the acquisition graph over every loaded
// package.
func (ix *Index) lockOrderGraph() *lockGraph {
	if ix.lockG != nil {
		return ix.lockG
	}
	g := &lockGraph{edges: map[string]map[string]lockEdge{}}
	for _, pkg := range ix.pkgs {
		collectLockEdges(pkg, ix, g)
	}
	ix.lockG = g
	return g
}

func collectLockEdges(pkg *Package, index *Index, g *lockGraph) {
	for fd, fn := range funcDecls(pkg.Files, pkg.TypesInfo) {
		acquire := func(pos token.Pos, class string, held lockState) {
			if class == "" {
				return
			}
			for _, heldClass := range held {
				if heldClass == "" {
					continue
				}
				g.addEdge(lockEdge{from: heldClass, to: class, pos: pos, fn: fn.Name()})
			}
		}
		entry := callerHeldLocks(pkg, index, fd, fn)
		lockFlow(pkg.TypesInfo, fd.Body, entry, lockHooks{acquire: acquire})
		// Closure bodies hold nothing on entry (they run at an
		// unknown time), but orderings inside them still count.
		for _, lit := range funcLits(fd.Body) {
			lockFlow(pkg.TypesInfo, lit.Body, lockState{}, lockHooks{acquire: acquire})
		}
	}
}

func (g *lockGraph) addEdge(e lockEdge) {
	if g.edges[e.from] == nil {
		g.edges[e.from] = map[string]lockEdge{}
	}
	if _, ok := g.edges[e.from][e.to]; !ok {
		g.edges[e.from][e.to] = e
	}
}

// cycles enumerates the graph's elementary cycles, one per distinct
// node set, each starting from its lexicographically smallest class.
// The graphs are tiny (one node per mutex class), so a bounded DFS is
// plenty.
func (g *lockGraph) cycles() [][]lockEdge {
	var nodes []string
	for from := range g.edges {
		nodes = append(nodes, from)
	}
	sort.Strings(nodes)

	var out [][]lockEdge
	seen := map[string]bool{} // canonical node-set key -> reported
	for _, start := range nodes {
		var path []lockEdge
		onPath := map[string]bool{start: true}
		var dfs func(node string)
		dfs = func(node string) {
			var tos []string
			for to := range g.edges[node] {
				tos = append(tos, to)
			}
			sort.Strings(tos)
			for _, to := range tos {
				e := g.edges[node][to]
				if to == start {
					cycle := append(append([]lockEdge(nil), path...), e)
					key := cycleKey(cycle)
					if !seen[key] {
						seen[key] = true
						out = append(out, cycle)
					}
					continue
				}
				// Restrict to nodes >= start so each cycle is found
				// from its smallest member only.
				if to < start || onPath[to] {
					continue
				}
				onPath[to] = true
				path = append(path, e)
				dfs(to)
				path = path[:len(path)-1]
				delete(onPath, to)
			}
		}
		dfs(start)
	}
	return out
}

func cycleKey(cycle []lockEdge) string {
	var names []string
	for _, e := range cycle {
		names = append(names, e.to)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
