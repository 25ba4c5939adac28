// Package graph builds and checks constraint graphs for test executions
// (paper §2): vertices are the program's operations; edges are the
// program-order constraints the memory consistency model enforces (computed
// statically, shared by all executions of a test) plus the dynamic
// reads-from (rf), from-read (fr), and write-serialization (ws) edges
// observed in one execution. An execution violates the MCM exactly when its
// constraint graph has a cycle, i.e. no topological sort exists.
package graph

import (
	"fmt"
	"slices"
	"sync"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
)

// Edge is one directed constraint: U happens before V. U and V are
// operation IDs.
type Edge struct {
	U, V int32
}

// RF maps each load op ID to the store op ID it read, or -1 for the initial
// value.
type RF = map[int]int

// WS maps each shared word to its stores' op IDs in write-serialization
// (coherence) order.
type WS = map[int][]int

// Options tunes edge construction for the platform's store atomicity.
type Options struct {
	// Forwarding marks a platform with store-to-load forwarding (multi-copy
	// or weaker atomicity): a load may read its own thread's latest store
	// from the store buffer before that store is globally visible.
	//
	// On such platforms the intra-thread same-address store→load ordering
	// cannot be assumed: neither a static po edge nor an rf edge is added
	// for a load that read its own store — treating them as ordered
	// produces the false positives of the paper's §8 footnote. Coherence is
	// still enforced precisely: when a load did NOT read its own latest
	// preceding store, forwarding cannot have occurred, so a dynamic
	// store→load edge is added conditionally (the TSOtool/Arvind–Maessen
	// treatment).
	Forwarding bool

	// WS selects how write-serialization constraints enter the graph.
	WS WSMode

	// DropFR omits every from-read edge (all load→store constraints),
	// emulating the constraint graphs the paper evidently used on its ARM
	// system: §8 observes that with tsort "stores do not depend on any load
	// operations in absence of memory barriers", which only holds when no
	// fr edges enter the graph — and it is what makes the paper's ARM
	// checking need almost no re-sorting (every dynamic edge is then
	// store→load and stores sort first). The cost is blindness to
	// fr-dependent violations (e.g. CoRR); see the `fr` ablation.
	DropFR bool
}

// WSMode selects the source of write-serialization (ws) edges.
type WSMode uint8

const (
	// WSStatic is the paper's mode: write serialization is "gathered
	// statically during the instrumentation process" (§3.2). Only
	// statically known ws facts are used — same-thread same-word store
	// order (already part of the static po edges) — and fr edges are
	// derived from rf alone: a load reading store s precedes s's next
	// same-thread same-word store, and a load reading the initial value
	// precedes every thread's first store to the word. Cross-thread store
	// serialization is not constrained, which admits the false-negative
	// class the paper acknowledges ("if some dependency edges are missing,
	// false negatives may result", §2) but makes the constraint graph a
	// pure function of the signature — the property the collective
	// checker's similarity windows rely on.
	WSStatic WSMode = iota
	// WSObserved additionally uses the per-execution coherence order
	// recorded by the platform harness: full ws chains and precise fr
	// edges. More violations are detectable; adjacent graphs differ more.
	WSObserved
)

// Builder constructs constraint graphs for many executions of one program
// under one model, amortizing the static program-order edges and the dense
// per-operation tables that dynamic-edge construction reads. A Builder is
// safe for concurrent use by several decode workers.
type Builder struct {
	prog    *prog.Program
	model   mcm.Model
	opts    Options
	n       int
	static  [][]int32 // static adjacency: po (model) + same-address + fences
	statCnt int
	// ops lists the program's operations by ID.
	ops []prog.Op
	// lastOwnStore[id] is the latest same-thread same-word store preceding
	// load id, or -1 (used for conditional forwarding edges).
	lastOwnStore []int32
	// nextOwnStore[id] is the next same-thread same-word store after store
	// id, or -1 (static fr targets in WSStatic mode).
	nextOwnStore []int32
	// firstStores[w] lists each thread's first store to word w (static fr
	// targets for initial-value reads in WSStatic mode).
	firstStores [][]int32
	// loads lists every load op ID in ID order (for the dense rf path).
	loads []int32
	// free holds the edge scratches not in use, guarded by mu. Unlike a
	// sync.Pool it never drops them, so once warm edge construction
	// allocates only its result, also under the race detector.
	mu   sync.Mutex
	free []*edgeScratch
}

// edgeScratch is one call's working memory for dynamic-edge construction.
type edgeScratch struct {
	raw   []Edge  // edges as emitted, unsorted, possibly duplicated
	byV   []Edge  // raw sorted by V, the first pass of appendSorted
	count []int32 // 2(n+1) bucket offsets, by V then by U, all zero between calls
	wsPos []int32 // observed mode: store ID -> position in its word's ws order, or -1
}

// NewBuilder precomputes the static (execution-independent) edges and the
// per-operation tables.
func NewBuilder(p *prog.Program, model mcm.Model, opts Options) *Builder {
	b := &Builder{prog: p, model: model, opts: opts, n: p.NumOps()}
	b.static = make([][]int32, b.n)
	b.ops = p.Ops()
	b.lastOwnStore = make([]int32, b.n)
	b.nextOwnStore = make([]int32, b.n)
	for id := range b.n {
		b.lastOwnStore[id], b.nextOwnStore[id] = -1, -1
	}
	b.firstStores = make([][]int32, p.NumWords)
	latest := make([]int32, p.NumWords) // this thread's latest store per word, or -1
	for _, th := range p.Threads {
		b.buildThreadPO(th.Ops)
		for w := range latest {
			latest[w] = -1
		}
		for _, op := range th.Ops {
			id := int32(op.ID)
			switch op.Kind {
			case prog.Load:
				b.loads = append(b.loads, id)
				b.lastOwnStore[id] = latest[op.Word]
			case prog.Store:
				if prev := latest[op.Word]; prev >= 0 {
					b.nextOwnStore[prev] = id
				} else {
					b.firstStores[op.Word] = append(b.firstStores[op.Word], id)
				}
				latest[op.Word] = id
			}
		}
	}
	for _, out := range b.static {
		b.statCnt += len(out)
	}
	return b
}

// ordered reports whether program order between ops a (earlier) and b
// (later) of one thread is preserved: by the model's kind matrix, by
// same-address coherence, or by fence semantics. Same-address store→load
// pairs are excluded on forwarding platforms — the load may be satisfied
// from the store buffer before the store is globally visible; the ordering
// is reinstated per execution by DynamicEdges when no forwarding occurred.
func (b *Builder) ordered(a, c prog.Op) bool {
	if a.Kind == prog.Fence || c.Kind == prog.Fence {
		return true
	}
	if a.Word == c.Word {
		if b.opts.Forwarding && a.Kind == prog.Store && c.Kind == prog.Load {
			return false
		}
		return b.model.OrderedSameAddr(a.Kind, c.Kind)
	}
	return b.model.Ordered(a.Kind, c.Kind)
}

// buildThreadPO emits a transitive reduction of the thread's preserved
// program order: an edge (i,j) is skipped when some k between them is
// ordered after i and before j, as the two shorter edges imply the longer
// one (induction on span length keeps reachability intact).
func (b *Builder) buildThreadPO(ops []prog.Op) {
	n := len(ops)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !b.ordered(ops[i], ops[j]) {
				continue
			}
			implied := false
			for k := i + 1; k < j; k++ {
				if b.ordered(ops[i], ops[k]) && b.ordered(ops[k], ops[j]) {
					implied = true
					break
				}
			}
			if !implied {
				u, v := int32(ops[i].ID), int32(ops[j].ID)
				b.static[u] = append(b.static[u], v)
			}
		}
	}
}

// NumOps returns the vertex count.
func (b *Builder) NumOps() int { return b.n }

// StaticEdgeCount returns the number of static (po) edges.
func (b *Builder) StaticEdgeCount() int { return b.statCnt }

// DynamicEdges computes the execution-dependent edges — rf, fr, and ws — in
// deterministic sorted order (suitable for set-diffing by the collective
// checker).
//
//   - ws: consecutive stores per word in coherence order.
//   - rf: source store → load (skipped intra-thread unless opted in).
//   - fr: load → the immediate ws-successor of the store it read; reads of
//     the initial value precede the word's first store. Transitivity
//     through the ws chain covers later stores.
func (b *Builder) DynamicEdges(rf RF, ws WS) ([]Edge, error) {
	s, err := b.begin(ws)
	defer b.release(s)
	if err != nil {
		return nil, err
	}
	for loadID, storeID := range rf {
		if loadID < 0 || loadID >= b.n {
			return nil, fmt.Errorf("graph: rf references op %d outside the program's %d ops", loadID, b.n)
		}
		if b.ops[loadID].Kind != prog.Load {
			return nil, fmt.Errorf("graph: rf references non-load op %d", loadID)
		}
		if err := b.emitLoad(s, int32(loadID), storeID, ws); err != nil {
			return nil, err
		}
	}
	return s.appendSorted(nil), nil
}

// AppendDynamicEdges is DynamicEdges over a dense reads-from slice indexed by
// op ID (rf[loadID] = source store op ID, or -1 for a read of the initial
// value — the shape instrument.Meta.DecodeInto fills). Every load op must
// have an entry; non-load slots are ignored. The sorted, de-duplicated edges
// are appended to dst, whose existing elements are left untouched as a
// prefix; dst grows at most once, by the number of edges emitted.
// The appended edges are identical to DynamicEdges over the equivalent RF
// map.
func (b *Builder) AppendDynamicEdges(dst []Edge, rf []int32, ws WS) ([]Edge, error) {
	if len(rf) < b.n {
		return nil, fmt.Errorf("graph: dense rf has %d entries, need %d", len(rf), b.n)
	}
	s, err := b.begin(ws)
	defer b.release(s)
	if err != nil {
		return nil, err
	}
	for _, loadID := range b.loads {
		if err := b.emitLoad(s, loadID, int(rf[loadID]), ws); err != nil {
			return nil, err
		}
	}
	return s.appendSorted(dst), nil
}

// begin takes a free scratch, or makes one, and, when coherence order is
// observed, emits the ws-chain edges and records each store's position in
// its word's order. The caller hands the scratch back with release.
func (b *Builder) begin(ws WS) (*edgeScratch, error) {
	var s *edgeScratch
	b.mu.Lock()
	if k := len(b.free); k > 0 {
		s, b.free = b.free[k-1], b.free[:k-1]
	}
	b.mu.Unlock()
	if s == nil {
		s = &edgeScratch{count: make([]int32, 2*(b.n+1)), wsPos: make([]int32, b.n)}
	}
	s.raw = s.raw[:0]
	if b.opts.WS != WSObserved {
		return s, nil
	}
	for i := range s.wsPos {
		s.wsPos[i] = -1
	}
	for w, stores := range ws {
		for i, st := range stores {
			if st < 0 || st >= b.n {
				return s, fmt.Errorf("graph: ws of word %d references op %d outside the program's %d ops", w, st, b.n)
			}
			s.wsPos[st] = int32(i)
			if i > 0 {
				s.raw = append(s.raw, Edge{int32(stores[i-1]), int32(st)})
			}
		}
	}
	return s, nil
}

// release returns a scratch taken by begin to the free list.
func (b *Builder) release(s *edgeScratch) {
	b.mu.Lock()
	b.free = append(b.free, s)
	b.mu.Unlock()
}

// emitLoad appends the rf/fr/forwarding edges contributed by one load
// reading from storeID (negative = initial value). loadID is in range.
func (b *Builder) emitLoad(s *edgeScratch, loadID int32, storeID int, ws WS) error {
	observed := b.opts.WS == WSObserved
	word := b.ops[loadID].Word
	own := b.lastOwnStore[loadID]
	if storeID < 0 {
		// Read the initial value: the load precedes every store to the
		// word. Observed mode: the first store in coherence order
		// suffices (ws chains cover the rest). Static mode: each
		// thread's first store to the word. (DropFR omits these
		// load→store constraints entirely.)
		if b.opts.DropFR {
			// no fr edges
		} else if observed {
			if chain := ws[word]; len(chain) > 0 {
				s.raw = append(s.raw, Edge{loadID, int32(chain[0])})
			}
		} else {
			for _, st := range b.firstStores[word] {
				s.raw = append(s.raw, Edge{loadID, st})
			}
		}
		if own >= 0 && b.opts.Forwarding {
			// Reading the initial value despite an own preceding store
			// is a uniprocessor violation; the reinstated edge (plus the
			// fr edge above) exposes it as a cycle.
			s.raw = append(s.raw, Edge{own, loadID})
		}
		return nil
	}
	if storeID >= b.n {
		return fmt.Errorf("graph: load %d reads op %d outside the program's %d ops", loadID, storeID, b.n)
	}
	st, store := b.ops[storeID], int32(storeID)
	if st.Kind != prog.Store || st.Word != word {
		return fmt.Errorf("graph: rf store %d incompatible with load %d", storeID, loadID)
	}
	if st.Thread != b.ops[loadID].Thread || !b.opts.Forwarding {
		// Cross-thread, or single-copy atomicity: the read implies
		// global visibility.
		s.raw = append(s.raw, Edge{store, loadID})
	}
	if b.opts.Forwarding && own >= 0 && own != store {
		// No forwarding happened if the load read anything other than
		// its own latest preceding store: reinstate the same-address
		// store→load program order for this execution.
		s.raw = append(s.raw, Edge{own, loadID})
	}
	// from-read: the load precedes whatever overwrites the store it
	// read. Observed mode: the immediate coherence-order successor.
	// Static mode: the store's next same-thread same-word store.
	if b.opts.DropFR {
		return nil
	}
	if observed {
		pos := s.wsPos[storeID]
		if pos < 0 {
			return fmt.Errorf("graph: rf store %d missing from ws of word %d", storeID, word)
		}
		if chain := ws[word]; int(pos)+1 < len(chain) {
			s.raw = append(s.raw, Edge{loadID, int32(chain[pos+1])})
		}
	} else if next := b.nextOwnStore[storeID]; next >= 0 {
		s.raw = append(s.raw, Edge{loadID, next})
	}
	return nil
}

// appendSorted appends the emitted edges to dst sorted by (U, V) and
// de-duplicated, in O(E + n) whatever the emission order: a counting sort
// by V into s.byV, then a stable counting sort by U into dst, each over n+1
// bucket offsets. dst's elements are not touched; it grows at most once, by
// the number of edges emitted.
func (s *edgeScratch) appendSorted(dst []Edge) []Edge {
	raw := s.raw
	byV := slices.Grow(s.byV[:0], len(raw))[:len(raw)]
	s.byV = byV
	n1 := len(s.count) / 2
	atV, atU := s.count[:n1], s.count[n1:]
	for _, e := range raw {
		atV[e.V+1]++
		atU[e.U+1]++
	}
	for k := 1; k < n1; k++ {
		atV[k] += atV[k-1]
		atU[k] += atU[k-1]
	}
	for _, e := range raw {
		byV[atV[e.V]] = e
		atV[e.V]++
	}
	base := len(dst)
	if cap(dst)-base < len(raw) {
		// One exact-size allocation (slices.Grow takes two under -race).
		dst = append(make([]Edge, 0, base+len(raw)), dst...)
	}
	dst = dst[:base+len(raw)]
	out := dst[base:]
	for _, e := range byV {
		out[atU[e.U]] = e
		atU[e.U]++
	}
	clear(s.count)
	return dst[:base+len(dedupEdges(out))]
}

// dedupEdges removes duplicates from a sorted edge slice in place.
func dedupEdges(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// Graph is one execution's constraint graph: shared static adjacency plus
// this execution's dynamic edges.
type Graph struct {
	N       int
	Static  [][]int32
	Dynamic []Edge
	dynAdj  [][]int32
}

// BuildGraph assembles the graph for one execution.
func (b *Builder) BuildGraph(rf RF, ws WS) (*Graph, error) {
	dyn, err := b.DynamicEdges(rf, ws)
	if err != nil {
		return nil, err
	}
	return b.FromDynamic(dyn), nil
}

// FromDynamic assembles a graph from precomputed dynamic edges.
func (b *Builder) FromDynamic(dyn []Edge) *Graph {
	g := &Graph{N: b.n, Static: b.static, Dynamic: dyn}
	g.dynAdj = make([][]int32, b.n)
	for _, e := range dyn {
		g.dynAdj[e.U] = append(g.dynAdj[e.U], e.V)
	}
	return g
}

// Out calls fn for every successor of u.
func (g *Graph) Out(u int32, fn func(v int32)) {
	for _, v := range g.Static[u] {
		fn(v)
	}
	for _, v := range g.dynAdj[u] {
		fn(v)
	}
}

// EdgeCount returns the total number of edges.
func (g *Graph) EdgeCount() int {
	n := len(g.Dynamic)
	for _, out := range g.Static {
		n += len(out)
	}
	return n
}

// TopoSort returns a topological order of the graph (Kahn's algorithm) and
// whether one exists; ok == false means the graph is cyclic — an MCM
// violation.
func (g *Graph) TopoSort() (order []int32, ok bool) {
	indeg := make([]int32, g.N)
	for u := int32(0); u < int32(g.N); u++ {
		g.Out(u, func(v int32) { indeg[v]++ })
	}
	queue := make([]int32, 0, g.N)
	for v := int32(0); v < int32(g.N); v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order = make([]int32, 0, g.N)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		g.Out(u, func(v int32) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		})
	}
	return order, len(order) == g.N
}

// FindCycle returns the operations of one cycle when the graph is cyclic
// (for diagnostics in the style of the paper's Fig. 13), or nil.
func (g *Graph) FindCycle() []int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, g.N)
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int32
	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		color[u] = gray
		found := false
		g.Out(u, func(v int32) {
			if found {
				return
			}
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					found = true
				}
			case gray:
				// Back edge u->v closes a cycle v -> ... -> u -> v.
				cyc := []int32{v}
				for x := u; x != v && x >= 0; x = parent[x] {
					cyc = append(cyc, x)
				}
				// Reverse into forward order v, ..., u.
				for i, j := 1, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				cycle = cyc
				found = true
			}
		})
		color[u] = black
		return found
	}
	for v := int32(0); v < int32(g.N); v++ {
		if color[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}

// VerifyOrder checks that order is a valid topological sort of g: a
// permutation of all vertices with every edge pointing forward. Used by
// tests and by the collective checker's self-checks.
func (g *Graph) VerifyOrder(order []int32) error {
	if len(order) != g.N {
		return fmt.Errorf("graph: order has %d vertices, want %d", len(order), g.N)
	}
	pos := make([]int32, g.N)
	seen := make([]bool, g.N)
	for i, v := range order {
		if v < 0 || int(v) >= g.N || seen[v] {
			return fmt.Errorf("graph: order is not a permutation (vertex %d)", v)
		}
		seen[v] = true
		pos[v] = int32(i)
	}
	var bad error
	for u := int32(0); u < int32(g.N); u++ {
		g.Out(u, func(v int32) {
			if bad == nil && pos[u] >= pos[v] {
				bad = fmt.Errorf("graph: edge %d->%d not forward in order", u, v)
			}
		})
	}
	return bad
}

// WordClass returns a per-operation priority class grouping operations by
// the shared word they access: fences first (class 0), then per word its
// stores (class 1+2w) followed by its loads (class 2+2w). NumWordClasses
// gives the class count. The collective checker pops ready vertices in
// class order, clustering each word's operations in its topological orders
// whenever program order permits; all dynamic edges are word-local, so edge
// changes between similar executions tend to stay inside small windows.
func (b *Builder) WordClass() (classOf []int32, classes int) {
	classOf = make([]int32, b.n)
	for _, op := range b.ops {
		switch op.Kind {
		case prog.Fence:
			classOf[op.ID] = 0
		case prog.Store:
			classOf[op.ID] = int32(1 + 2*op.Word)
		case prog.Load:
			classOf[op.ID] = int32(2 + 2*op.Word)
		}
	}
	return classOf, 2*b.prog.NumWords + 1
}
