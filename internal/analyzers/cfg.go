package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
)

// This file is the reusable intra-procedural CFG/dataflow layer the
// flow-sensitive analyzers (lockcheck, lockorder, goroleak) build on.
// It mirrors the shape of golang.org/x/tools/go/cfg on the standard
// library alone, in the same spirit as the loader.
//
// A CFG decomposes one function body into basic blocks of "simple"
// nodes — assignments, expression statements, sends, returns, and the
// condition/tag expressions of the control statements — connected by
// edges that model branching, loops, switches, selects, and panics.
// Composite statements (if/for/switch/...) never appear as nodes
// themselves, so a transfer function can ast.Inspect each node without
// re-walking nested control flow.
//
// Function literals are deliberately NOT inlined into the enclosing
// graph: a closure runs at an unknown time under unknown state, so
// analyses visit literal bodies separately (see funcLits).

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks in creation order; Blocks[0] is the entry block.
	Blocks []*Block
	// Entry is the block control enters at the top of the body.
	Entry *Block
	// Exit is the single synthetic exit block: every return, panic,
	// and fall-off-the-end edge leads here. It holds no nodes.
	Exit *Block
}

// A Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	Index int
	// Nodes are simple statements and bare condition expressions in
	// evaluation order.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// comment labels the block's role ("if.then", "for.head", ...)
	// for debugging and tests.
	comment string
}

// String renders a compact description of the block for tests.
func (b *Block) String() string {
	return fmt.Sprintf("b%d(%s)", b.Index, b.comment)
}

// NewCFG builds the control-flow graph of body. Branch targets
// (break/continue/goto, labeled or not) are resolved; unreachable
// trailing code gets blocks with no predecessors.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.g.Exit) // fall off the end
	for _, pg := range b.gotos {
		if target := b.labels[pg.label]; target != nil {
			b.edge(pg.from, target)
		}
	}
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

// HasCycle reports whether any cycle is reachable from the entry
// block — i.e. whether the function contains a loop that can actually
// run more than once.
func (g *CFG) HasCycle() bool {
	const (
		white = iota
		grey
		black
	)
	color := make([]int, len(g.Blocks))
	var visit func(*Block) bool
	visit = func(b *Block) bool {
		color[b.Index] = grey
		for _, s := range b.Succs {
			switch color[s.Index] {
			case grey:
				return true
			case white:
				if visit(s) {
					return true
				}
			}
		}
		color[b.Index] = black
		return false
	}
	return visit(g.Entry)
}

// Reachable returns the set of blocks reachable from from.
func (g *CFG) Reachable(from *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return seen
}

// Iterate runs a forward dataflow analysis over the graph to a fixed
// point and returns each block's entry state. entry seeds the entry
// block; transfer folds one block's nodes over a state (it must not
// mutate its argument); meet joins predecessor exit states (it is
// never called with nil states); equal bounds the iteration.
//
// Blocks with no processed predecessor yet are ⊤ (unknown): they take
// the first incoming state as-is, so a must-analysis needs no explicit
// universal set.
func Iterate[S any](g *CFG, entry S, transfer func(*Block, S) S, meet func(a, b S) S, equal func(a, b S) bool) map[*Block]S {
	in := map[*Block]S{g.Entry: entry}
	out := map[*Block]S{}
	// Iterate in block order until stable; the graphs are small enough
	// that a worklist would be over-engineering.
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			state, ok := in[b]
			if !ok {
				continue // unreached so far
			}
			newOut := transfer(b, state)
			if prev, ok := out[b]; !ok || !equal(prev, newOut) {
				out[b] = newOut
				changed = true
			}
			for _, s := range b.Succs {
				prev, seen := in[s]
				next := newOut
				if seen {
					next = meet(prev, newOut)
				}
				if !seen || !equal(prev, next) {
					in[s] = next
					changed = true
				}
			}
		}
	}
	return in
}

// funcLits collects every function literal under n that analyses
// should visit as a separate lock-free body, in source order. Literals
// in defer statements are excluded: a deferred closure runs under
// unknown state (its enclosing function's locks may or may not be
// held), matching the pre-CFG lockcheck semantics.
func funcLits(n ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			lits = append(lits, n)
		}
		return true
	})
	return lits
}

type pendingGoto struct {
	from  *Block
	label string
}

// loopCtx tracks one enclosing breakable/continuable statement.
type loopCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block
	loops  []loopCtx
	labels map[string]*Block
	gotos  []pendingGoto
	// pendingLabel names the statement about to be built, so its loop
	// context picks the label up.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(comment string) *Block {
	blk := &Block{Index: len(b.g.Blocks), comment: comment}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// seal ends the current path: subsequent statements are unreachable
// until a branch target opens a new block.
func (b *cfgBuilder) seal() {
	b.cur = b.newBlock("unreachable")
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.seal()
		}
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.seal()
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		// The label is both a goto target and the name of the
		// following loop/switch for labeled break/continue.
		target := b.newBlock("label." + s.Label.Name)
		b.edge(b.cur, target)
		b.cur = target
		if b.labels == nil {
			b.labels = map[string]*Block{}
		}
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.findLoop(label, false); t != nil {
			b.edge(b.cur, t)
		}
	case token.CONTINUE:
		if t := b.findLoop(label, true); t != nil {
			b.edge(b.cur, t)
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
	case token.FALLTHROUGH:
		// Handled by switchBody via edge to the next clause; the
		// statement itself carries no other flow.
		return
	}
	b.seal()
}

// findLoop resolves a break/continue target: the innermost context, or
// the one carrying the label.
func (b *cfgBuilder) findLoop(label string, cont bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		ctx := b.loops[i]
		if cont && ctx.continueTo == nil {
			continue // break-only context (switch/select)
		}
		if label != "" && ctx.label != label {
			continue
		}
		if cont {
			return ctx.continueTo
		}
		return ctx.breakTo
	}
	return nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	join := b.newBlock("if.join")

	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmts(s.Body.List)
	b.edge(b.cur, join)

	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, join)
	} else {
		b.edge(cond, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	after := b.newBlock("for.after")

	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		b.edge(b.cur, after)
	}
	b.edge(b.cur, body)

	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: post})
	b.cur = body
	b.stmts(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]

	if s.Post != nil {
		b.edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
	}
	b.edge(b.cur, head)
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")

	b.edge(b.cur, head)
	b.edge(head, body)
	b.edge(head, after) // empty (or exhausted) range

	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: head})
	b.cur = body
	b.stmts(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.edge(b.cur, head)
	b.cur = after
}

// switchBody builds the clause structure shared by switch and type
// switch. Each clause body starts from the dispatch block; fallthrough
// adds an edge to the following clause's body.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string) {
	dispatch := b.cur
	after := b.newBlock("switch.after")
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})

	var clauseBlocks []*Block
	hasDefault := false
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock("case")
		b.edge(dispatch, blk)
		clauseBlocks = append(clauseBlocks, blk)
	}
	if !hasDefault {
		b.edge(dispatch, after) // no case matched
	}
	for i, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = clauseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmts(cc.Body)
		if fallsThrough && i+1 < len(clauseBlocks) {
			b.edge(b.cur, clauseBlocks[i+1])
			b.seal()
		} else {
			b.edge(b.cur, after)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	dispatch := b.cur
	after := b.newBlock("select.after")
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		b.edge(dispatch, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after)
	}
	// A select with no clauses blocks forever: after has no preds.
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
