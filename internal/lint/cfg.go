package lint

import (
	"go/ast"
	"go/token"
)

// Control-flow graph construction for the dataflow analyzer tier.
//
// A CFG is built per function body (declared functions and function
// literals alike) directly from the go/ast form — no SSA, no type
// information. Blocks hold the statements and branch conditions that
// execute in order; edges follow Go's structured control flow plus
// goto and labeled break/continue. The representation is deliberately
// small: analyzers walk Block.Nodes with a transfer function and let
// the worklist solver in dataflow.go reach a fixpoint.
//
// Modeling decisions that analyzers rely on:
//
//   - defer: deferred calls are collected into CFG.Defers in source
//     order. They run on *every* edge into Exit (normal return and
//     panic alike), so analyses treat them as exit-edge effects
//     rather than placing them in a block. A `defer mu.Unlock()`
//     therefore leaves the lock held until function exit, which is
//     exactly the hold-time lockset must measure.
//   - panic: a call to the predeclared `panic` terminates its block
//     with an edge to Exit (defers still run on that edge).
//   - function literals: a FuncLit is a value; its body runs wherever
//     the value is called, not where it appears. The builder does not
//     descend into literal bodies — it records top-level literals in
//     CFG.Lits so analyzers can build separate CFGs for them.
//   - unreachable code: statements after a return/panic/goto land in
//     a fresh block with no predecessors. The solver seeds such
//     blocks with the lattice bottom so they never pollute facts.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists deferred calls in source order; they execute on
	// every edge into Exit.
	Defers []*ast.CallExpr
	// Lits lists the function literals appearing directly in this
	// body (not nested inside another literal), in source order.
	Lits []*ast.FuncLit
	// NonBlock marks comm operations (send/receive statements) that
	// belong to a select with a default clause: they never block.
	NonBlock map[ast.Node]bool
}

// Block is a basic block: a maximal straight-line run of statements.
type Block struct {
	Index int
	// Nodes holds the statements and control expressions executed in
	// this block, in order. Branch conditions appear as their
	// ast.Expr; comm operations of a select case appear as the first
	// node of that case's block.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Cond, when non-nil, is the branch condition this block ends
	// with: Succs[0] is the true edge and Succs[1] the false edge.
	// Blocks ending in a multi-way branch (switch/select heads) or an
	// unconditional edge leave Cond nil.
	Cond ast.Expr
}

// NewCFG builds the control-flow graph of one function body. The body
// may come from a FuncDecl or a FuncLit; a nil body (declaration-only
// function) yields a two-block Entry→Exit graph.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
		b.collectLits(body)
	}
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	b.patchGotos()
	return b.cfg
}

type branchTarget struct {
	label string // "" for the innermost unlabeled target
	block *Block
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil while the current
	// program point is unreachable (after return/panic/goto).
	cur *Block

	breaks    []branchTarget
	continues []branchTarget

	labels  map[string]*Block   // label name -> first block of labeled stmt
	pending map[string][]*Block // forward gotos awaiting their label
	// pendingLabel carries a label down to the loop/switch/select it
	// names so labeled break/continue resolve to the right targets.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, opening an unreachable
// block if control cannot reach this point.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		head.Cond = s.Cond
		then := b.newBlock()
		after := b.newBlock()
		b.edge(head, then) // Succs[0]: true edge
		var els *Block
		if s.Else != nil {
			els = b.newBlock()
			b.edge(head, els) // Succs[1]: false edge
		} else {
			b.edge(head, after)
		}
		b.cur = then
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		body := b.newBlock()
		after := b.newBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
			b.edge(head, body)  // true
			b.edge(head, after) // false
		} else {
			b.edge(head, body)
		}
		var post *Block
		cont := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			cont = post
		}
		b.pushLoop(label, after, cont)
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		// A body-less copy of the RangeStmt stands in for the
		// per-iteration work: evaluating the range operand (once, in
		// practice) and assigning Key/Value. The copy keeps the body
		// out of the head block so transfer functions see each body
		// statement exactly once, in the body block.
		rs := *s
		rs.Body = &ast.BlockStmt{Lbrace: s.Body.Lbrace, Rbrace: s.Body.Lbrace}
		head.Nodes = append(head.Nodes, &rs)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(label, after, head)
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		b.switchBody(label, s.Body)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		after := b.newBlock()
		b.pushBreak(label, after)
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				// The comm op (send or receive) executes when this
				// case is chosen.
				b.add(comm.Comm)
				if hasDefault {
					if b.cfg.NonBlock == nil {
						b.cfg.NonBlock = make(map[ast.Node]bool)
					}
					b.cfg.NonBlock[comm.Comm] = true
				}
			}
			b.stmtList(comm.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		// `select {}` (no cases) blocks forever, so after keeps no
		// incoming edges and stays unreachable.
		b.popBreak()
		b.cur = after

	case *ast.LabeledStmt:
		// Make (or adopt) a block at the label so goto can target it.
		start := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, start)
		}
		b.cur = start
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = start
		for _, from := range b.pending[s.Label.Name] {
			b.edge(from, start)
		}
		if b.pending != nil {
			delete(b.pending, s.Label.Name)
		}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.add(s)
			if t := b.findTarget(b.breaks, s.Label); t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.CONTINUE:
			b.add(s)
			if t := b.findTarget(b.continues, s.Label); t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.GOTO:
			b.add(s)
			if b.cur != nil && s.Label != nil {
				if t, ok := b.labels[s.Label.Name]; ok {
					b.edge(b.cur, t)
				} else {
					if b.pending == nil {
						b.pending = make(map[string][]*Block)
					}
					b.pending[s.Label.Name] = append(b.pending[s.Label.Name], b.cur)
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by switchBody; nothing to add.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.DeferStmt:
		// Argument evaluation happens here; the call itself is an
		// exit-edge effect.
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s.Call)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Simple statements: assignments, expression statements,
		// channel sends, inc/dec, declarations, go statements.
		b.add(s)
		if terminates(s) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	}
}

// switchBody lowers the case clauses of a (type) switch. The current
// block is the switch head; each case gets its own block with an edge
// from the head, and a missing default adds a head→after edge.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt) {
	head := b.cur
	after := b.newBlock()
	b.pushBreak(label, after)
	hasDefault := false
	var caseBlocks []*Block
	var caseBodies [][]ast.Stmt
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		blk := b.newBlock()
		b.edge(head, blk)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseBlocks = append(caseBlocks, blk)
		caseBodies = append(caseBodies, cc.Body)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, blk := range caseBlocks {
		b.cur = blk
		stmts := caseBodies[i]
		ft := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
			}
		}
		b.stmtList(stmts)
		if ft && i+1 < len(caseBlocks) {
			if b.cur != nil {
				b.edge(b.cur, caseBlocks[i+1])
			}
			b.cur = nil
			continue
		}
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.popBreak()
	b.cur = after
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{"", brk})
	b.continues = append(b.continues, branchTarget{"", cont})
	if label != "" {
		b.breaks = append(b.breaks, branchTarget{label, brk})
		b.continues = append(b.continues, branchTarget{label, cont})
	}
}

func (b *cfgBuilder) popLoop() {
	b.breaks = popTargets(b.breaks)
	b.continues = popTargets(b.continues)
}

func (b *cfgBuilder) pushBreak(label string, brk *Block) {
	b.breaks = append(b.breaks, branchTarget{"", brk})
	if label != "" {
		b.breaks = append(b.breaks, branchTarget{label, brk})
	}
}

func (b *cfgBuilder) popBreak() {
	b.breaks = popTargets(b.breaks)
}

// popTargets removes the innermost unlabeled target plus its labeled
// alias if one was pushed alongside it.
func popTargets(ts []branchTarget) []branchTarget {
	if n := len(ts); n > 0 && ts[n-1].label != "" {
		ts = ts[:n-1]
	}
	if n := len(ts); n > 0 {
		ts = ts[:n-1]
	}
	return ts
}

func (b *cfgBuilder) findTarget(ts []branchTarget, label *ast.Ident) *Block {
	if label == nil {
		// Innermost unlabeled target.
		for i := len(ts) - 1; i >= 0; i-- {
			if ts[i].label == "" {
				return ts[i].block
			}
		}
		return nil
	}
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i].label == label.Name {
			return ts[i].block
		}
	}
	return nil
}

// patchGotos resolves gotos whose label never materialized (malformed
// input); they simply terminate their block.
func (b *cfgBuilder) patchGotos() {
	b.pending = nil
}

// terminates reports whether a simple statement never falls through:
// a call to the predeclared panic, or to a handful of well-known
// no-return functions. Purely syntactic — a shadowed `panic` would be
// misjudged, which is acceptable for a linter.
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fn.X.(*ast.Ident); ok {
			switch pkg.Name + "." + fn.Sel.Name {
			case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
		}
	}
	return false
}

// collectLits records the function literals that appear directly in
// this body — excluding literals nested inside another literal, whose
// turn comes when their enclosing literal's CFG is built.
func (b *cfgBuilder) collectLits(body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			b.cfg.Lits = append(b.cfg.Lits, lit)
			return false // don't descend: nested lits belong to this one
		}
		return true
	}
	for _, s := range body.List {
		ast.Inspect(s, walk)
	}
}

// inspectShallow walks n without descending into function literal
// bodies. Analyzers use it when scanning a block's nodes so effects
// inside a closure are not attributed to the enclosing block.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return f(m)
	})
}

// collectDeclLits gathers every function literal in a declared body,
// literals nested inside other literals included (CFG.Lits lists only
// the top-level ones).
func collectDeclLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}
