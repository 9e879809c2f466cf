package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CancelFlow is the interprocedural generalization of goroleak: every
// potentially-blocking operation reachable from a long-running entry
// point (Serve, Run, Drive, Broadcast) must be gated by a
// cancellation signal somewhere on its path, or the fault-budget story
// collapses — a blocked serve loop is a fault the system cannot repair.
//
// Per function, a blocking operation counts as gated when:
//
//   - it is a select with a default case (non-blocking), or
//   - it is a select with a case receiving from a cancellation-shaped
//     channel: any chan struct{} (ctx.Done(), stop/done channels) or a
//     chan time.Time (timers, tickers, time.After), or
//   - it is a bare receive from such a channel.
//
// Everything else — a bare send, a bare receive from a data channel, a
// range over a channel, sync.Cond.Wait, and concrete net I/O methods —
// is an ungated blocking site. Sites propagate bottom-up through the
// call-graph summaries (go and defer included: a deferred drain blocks
// teardown just as hard), so a Serve that delegates its loop three
// calls down is still checked. Dynamic interface dispatch is trusted,
// like goroleak: a net.Listener's Accept is terminated by Close.
// sync.WaitGroup.Wait is goroleak's domain (every spawned goroutine
// must already have a termination path) and is not re-flagged here.
var CancelFlow = &Analyzer{
	Name: "cancelflow",
	Doc:  "require a ctx.Done/stop-channel gate on every blocking op reachable from Serve/Run/Drive/Broadcast",
	Run:  runCancelFlow,
}

// cancelEntryPoints are the exported method/function names treated as
// long-running entry points.
var cancelEntryPoints = map[string]bool{
	"Serve":     true,
	"Run":       true,
	"Drive":     true,
	"Broadcast": true,
}

// A blockSite is one ungated potentially-blocking operation.
type blockSite struct {
	pos  token.Pos
	what string
}

// cancelSummary is a function's exposed ungated blocking sites (its
// own plus its static callees'), deduped and position-sorted so
// summaries compare cheaply; maxBlockSites bounds growth through deep
// call chains.
type cancelSummary []blockSite

const maxBlockSites = 32

func cancelSummaryEqual(a, b cancelSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cancelSummaries computes (once per load) every function's exposed
// blocking sites, to fixpoint through the call graph.
func (ix *Index) cancelSummaries() map[*cgNode]cancelSummary {
	if s, ok := ix.sums["cancelflow"].(map[*cgNode]cancelSummary); ok {
		return s
	}
	own := map[*cgNode]cancelSummary{}
	g := ix.callGraph()
	for _, n := range g.nodes {
		if n.Decl.Body != nil {
			own[n] = ownBlockingSites(n)
		}
	}
	s := summarize(g, func(n *cgNode, get func(*cgNode) cancelSummary) cancelSummary {
		merged := append(cancelSummary(nil), own[n]...)
		for _, site := range n.Out {
			if site.Dynamic || len(site.Callees) != 1 {
				continue // unresolved or dynamic dispatch: trusted
			}
			merged = append(merged, get(site.Callees[0])...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].pos < merged[j].pos })
		dedup := merged[:0]
		for i, s := range merged {
			if i == 0 || s.pos != merged[i-1].pos {
				dedup = append(dedup, s)
			}
		}
		if len(dedup) > maxBlockSites {
			dedup = dedup[:maxBlockSites]
		}
		return dedup
	}, cancelSummaryEqual)
	ix.sums["cancelflow"] = s
	return s
}

// ownBlockingSites scans one declaration body — closures included,
// deferred ones too — for blocking operations not gated in place.
func ownBlockingSites(n *cgNode) cancelSummary {
	info := n.Pkg.TypesInfo
	var sites cancelSummary
	var walk func(nd ast.Node)
	walk = func(nd ast.Node) {
		ast.Inspect(nd, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				walk(x.Body)
				return false
			case *ast.SelectStmt:
				if !selectGated(info, x) {
					sites = append(sites, blockSite{x.Pos(), "select (no default or cancellation case)"})
				}
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, st := range cc.Body {
							walk(st)
						}
					}
				}
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && !isCancelChan(info, x.X) {
					sites = append(sites, blockSite{x.Pos(), "channel receive"})
				}
			case *ast.SendStmt:
				sites = append(sites, blockSite{x.Pos(), "channel send"})
			case *ast.RangeStmt:
				if t := info.TypeOf(x.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						sites = append(sites, blockSite{x.Pos(), "range over channel"})
					}
				}
			case *ast.CallExpr:
				if what, ok := blockingCall(info, x); ok {
					sites = append(sites, blockSite{x.Pos(), what})
				}
			}
			return true
		})
	}
	walk(n.Decl.Body)
	return sites
}

// selectGated reports whether a select cannot wedge: it has a default
// case, or some case receives from a cancellation-shaped channel.
func selectGated(info *types.Info, s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default: non-blocking
		}
		if ch := commRecvChan(cc.Comm); ch != nil && isCancelChan(info, ch) {
			return true
		}
	}
	return false
}

// commRecvChan extracts the channel expression of a receive comm
// clause (`case <-ch:` or `case v := <-ch:`), or nil for sends.
func commRecvChan(comm ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if u, ok := unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// isCancelChan reports whether e is a cancellation-shaped channel: its
// element type is struct{} (ctx.Done(), stop/done channels) or
// time.Time (timers, tickers, time.After).
func isCancelChan(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
		return true
	}
	if named, ok := ch.Elem().(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
	}
	return false
}

// blockingCall classifies call expressions that block by themselves:
// sync.Cond.Wait and the concrete net I/O methods (interface dispatch
// is trusted — Close unblocks it).
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || isInterfaceMethod(fn) {
		return "", false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return "", false
	}
	named, ok := derefType(recv.Type()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	switch named.Obj().Pkg().Path() {
	case "sync":
		if named.Obj().Name() == "Cond" && fn.Name() == "Wait" {
			return "sync.Cond.Wait", true
		}
	case "net":
		switch fn.Name() {
		case "Accept", "AcceptTCP", "Read", "Write", "ReadFrom", "ReadFromUDP", "WriteTo", "WriteToUDP":
			return "net." + named.Obj().Name() + "." + fn.Name(), true
		}
	}
	return "", false
}

func runCancelFlow(pass *Pass) error {
	g := pass.Index.callGraph()
	sums := pass.Index.cancelSummaries()
	local := map[string]bool{}
	for _, f := range pass.Files {
		local[pass.Fset.Position(f.Pos()).Filename] = true
	}
	// Every entry point module-wide contributes findings, but each site
	// is reported once, by the package that owns its file — the same
	// anchoring lockorder uses for its module-wide cycles.
	reported := map[token.Pos]bool{}
	for _, n := range g.nodes {
		if !cancelEntryPoints[n.Fn.Name()] || !n.Decl.Name.IsExported() {
			continue
		}
		for _, s := range sums[n] {
			if reported[s.pos] || !local[pass.Fset.Position(s.pos).Filename] {
				continue
			}
			reported[s.pos] = true
			pass.Reportf(s.pos, "blocking %s is reachable from entry point %s with no ctx.Done/stop-channel gate on the path",
				s.what, n.Fn.Name())
		}
	}
	return nil
}
