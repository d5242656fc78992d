package lint

import "go/ast"

// Worklist dataflow solver over the CFGs built in cfg.go.
//
// An analyzer supplies a Lattice (the abstract domain), a per-node
// transfer function, and — for forward analyses — an optional edge
// transfer that refines facts along the true/false edges of a branch
// (the hook path-sensitive analyses like nilcharge use to learn from
// `x == nil` conditions).
//
// Contract:
//
//   - Join must be commutative, associative, and idempotent, and must
//     treat Bottom as its identity: Join(Bottom, x) == x. Bottom is
//     the fact of unreached code, so an unreachable predecessor never
//     perturbs a merge.
//   - The transfer function must be monotone w.r.t. the join order or
//     the worklist may not terminate. Facts over finite maps/sets with
//     union or intersection joins satisfy this naturally.
//   - Transfer receives each Block.Nodes entry in execution order
//     (forward) or reverse (backward) and returns the updated fact.
//     It must not mutate its input fact in place — the same value is
//     shared between blocks; write through a factEdit.
//   - Transfers never see Bottom: unreached code stays unreached, so
//     the solver carries Bottom through a block without calling them.

// Lattice describes one analysis's abstract domain.
type Lattice interface {
	// Bottom returns the fact for unreached program points. Join must
	// treat it as an identity element.
	Bottom() any
	// Join merges two facts at a control-flow merge point.
	Join(a, b any) any
	// Equal reports whether two facts are equal (fixpoint check).
	Equal(a, b any) bool
}

// MapLattice is the one domain the analyzers in this package use: a fact
// is a map[K]V over the tracked things (held locks, variables). The nil
// map is Bottom, which keeps "unreached" apart from the empty non-nil
// map, "reached knowing nothing". An absent key holds the zero V; Join
// is JoinValue key by key and drops zeros, so a zero is never stored and
// Equal can compare entry for entry. JoinValue must be commutative,
// associative and idempotent: || over bool is a may-set, && a must-set.
type MapLattice[K, V comparable] struct {
	JoinValue func(a, b V) V
}

func (MapLattice[K, V]) Bottom() any { return map[K]V(nil) }

func (l MapLattice[K, V]) Join(a, b any) any {
	as, bs := a.(map[K]V), b.(map[K]V)
	if as == nil {
		return bs
	}
	if bs == nil {
		return as
	}
	var zero V
	out := make(map[K]V, len(as))
	for k, av := range as {
		if v := l.JoinValue(av, bs[k]); v != zero {
			out[k] = v
		}
	}
	for k, bv := range bs {
		if _, both := as[k]; !both {
			if v := l.JoinValue(zero, bv); v != zero {
				out[k] = v
			}
		}
	}
	return out
}

func (MapLattice[K, V]) Equal(a, b any) bool {
	as, bs := a.(map[K]V), b.(map[K]V)
	if (as == nil) != (bs == nil) || len(as) != len(bs) {
		return false
	}
	for k, v := range as {
		if w, ok := bs[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// factEdit is how a transfer function writes a MapLattice fact: the
// first write that changes anything clones the map, so the input — which
// other blocks still hold — is never mutated, and a transfer that writes
// nothing returns its input unchanged. Setting the zero V deletes.
type factEdit[K, V comparable] struct {
	m      map[K]V
	cloned bool
}

func (e *factEdit[K, V]) set(k K, v V) {
	if e.m[k] == v {
		return
	}
	if !e.cloned {
		c := make(map[K]V, len(e.m)+1)
		for k, v := range e.m {
			c[k] = v
		}
		e.m, e.cloned = c, true
	}
	var zero V
	if v == zero {
		delete(e.m, k)
	} else {
		e.m[k] = v
	}
}

// NodeTransfer applies one node's effect to the incoming fact and
// returns the outgoing fact.
type NodeTransfer func(n ast.Node, fact any) any

// EdgeTransfer refines the fact flowing from a branch block along its
// true (branch==true, Succs[0]) or false (Succs[1]) edge. It is only
// invoked for blocks whose Cond is non-nil.
type EdgeTransfer func(cond ast.Expr, branch bool, fact any) any

// FlowResult holds the per-block fixpoint facts. In is the fact on
// block entry, Out on block exit.
type FlowResult struct {
	In  map[*Block]any
	Out map[*Block]any

	cfg      *CFG
	lat      Lattice
	backward bool
}

// Sweep is the reporting pass after a solve. The fixpoint keeps one fact
// per block boundary, but a check needs the fact at its own node, so
// Sweep replays every reached block from its boundary fact: step gets
// each node with the fact that holds just before it (forward result) or
// just after it (backward result, nodes in reverse), reports what it
// finds, and returns the transferred fact like a NodeTransfer.
func (r *FlowResult) Sweep(step NodeTransfer) {
	bottom := r.lat.Bottom()
	for _, b := range r.cfg.Blocks {
		fact := r.In[b]
		if r.backward {
			fact = r.Out[b]
		}
		if r.lat.Equal(fact, bottom) {
			continue
		}
		for i, n := range b.Nodes {
			if r.backward {
				n = b.Nodes[len(b.Nodes)-1-i]
			}
			fact = step(n, fact)
		}
	}
}

// ForwardFlow runs a forward worklist analysis: entry is the fact at
// function entry; tf is applied to each node in order; ef (optional)
// refines branch edges.
func (c *CFG) ForwardFlow(lat Lattice, entry any, tf NodeTransfer, ef EdgeTransfer) *FlowResult {
	res := c.newFlowResult(lat, false)
	bottom := lat.Bottom()
	res.In[c.Entry] = entry

	// Seed the worklist in reverse postorder so most facts settle in
	// one or two sweeps.
	order := c.reversePostorder()
	work := newWorklist(order)
	for {
		b, ok := work.next()
		if !ok {
			break
		}
		in := res.In[b]
		if b != c.Entry {
			in = bottom
			for _, p := range b.Preds {
				f := res.Out[p]
				if ef != nil && p.Cond != nil && len(p.Succs) >= 2 && !lat.Equal(f, bottom) {
					f = ef(p.Cond, b == p.Succs[0], f)
				}
				in = lat.Join(in, f)
			}
			res.In[b] = in
		}
		out := in
		if !lat.Equal(in, bottom) {
			for _, n := range b.Nodes {
				out = tf(n, out)
			}
		}
		if !lat.Equal(out, res.Out[b]) {
			res.Out[b] = out
			for _, s := range b.Succs {
				work.push(s)
			}
		}
	}
	return res
}

// BackwardFlow runs a backward worklist analysis: exit is the fact at
// function exit; tf is applied to each node in reverse order. Branch
// refinement does not apply backward.
func (c *CFG) BackwardFlow(lat Lattice, exit any, tf NodeTransfer) *FlowResult {
	res := c.newFlowResult(lat, true)
	bottom := lat.Bottom()
	res.Out[c.Exit] = exit

	order := c.reversePostorder()
	// Process in postorder (reverse of RPO) for backward analyses.
	rev := make([]*Block, len(order))
	for i, b := range order {
		rev[len(order)-1-i] = b
	}
	work := newWorklist(rev)
	for {
		b, ok := work.next()
		if !ok {
			break
		}
		out := res.Out[b]
		if b != c.Exit {
			out = bottom
			for _, s := range b.Succs {
				out = lat.Join(out, res.In[s])
			}
			res.Out[b] = out
		}
		in := out
		if !lat.Equal(out, bottom) {
			for i := len(b.Nodes) - 1; i >= 0; i-- {
				in = tf(b.Nodes[i], in)
			}
		}
		if !lat.Equal(in, res.In[b]) {
			res.In[b] = in
			for _, p := range b.Preds {
				work.push(p)
			}
		}
	}
	return res
}

// newFlowResult seeds every block boundary with Bottom.
func (c *CFG) newFlowResult(lat Lattice, backward bool) *FlowResult {
	res := &FlowResult{
		In: make(map[*Block]any, len(c.Blocks)), Out: make(map[*Block]any, len(c.Blocks)),
		cfg: c, lat: lat, backward: backward,
	}
	bottom := lat.Bottom()
	for _, b := range c.Blocks {
		res.In[b], res.Out[b] = bottom, bottom
	}
	return res
}

// reversePostorder returns the blocks reachable from Entry in reverse
// postorder, followed by any unreachable blocks (so they still get
// facts — bottom — without disturbing convergence order).
func (c *CFG) reversePostorder() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(c.Entry)
	order := make([]*Block, 0, len(c.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	for _, b := range c.Blocks {
		if !seen[b.Index] {
			order = append(order, b)
		}
	}
	return order
}

// worklist is a FIFO of blocks with membership dedup.
type worklist struct {
	queue []*Block
	in    map[*Block]bool
}

func newWorklist(seed []*Block) *worklist {
	w := &worklist{in: make(map[*Block]bool, len(seed))}
	for _, b := range seed {
		w.push(b)
	}
	return w
}

func (w *worklist) push(b *Block) {
	if !w.in[b] {
		w.in[b] = true
		w.queue = append(w.queue, b)
	}
}

func (w *worklist) next() (*Block, bool) {
	if len(w.queue) == 0 {
		return nil, false
	}
	b := w.queue[0]
	w.queue = w.queue[1:]
	w.in[b] = false
	return b, true
}
