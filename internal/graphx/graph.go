// Package graphx models the source database schema graph (tables connected
// by foreign keys) and enumerates the join trees that candidate schema
// mapping queries are built from (§2.3 step #1: "exhaustively search
// through the source database schema graph and find all possible join
// paths, each connecting a set of related columns that altogether can be
// mapped to all columns in the target schema").
package graphx

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"prism/internal/exec"
	"prism/internal/schema"
)

// Graph is the undirected schema graph: one node per table, one edge per
// foreign key.
type Graph struct {
	sch *schema.Schema
	// adj maps lower(table) -> incident foreign keys.
	adj map[string][]schema.ForeignKey
}

// New builds the schema graph for a schema.
func New(sch *schema.Schema) *Graph {
	g := &Graph{sch: sch, adj: make(map[string][]schema.ForeignKey)}
	for _, fk := range sch.ForeignKeys() {
		g.adj[strings.ToLower(fk.From.Table)] = append(g.adj[strings.ToLower(fk.From.Table)], fk)
		g.adj[strings.ToLower(fk.To.Table)] = append(g.adj[strings.ToLower(fk.To.Table)], fk)
	}
	return g
}

// Schema returns the underlying schema.
func (g *Graph) Schema() *schema.Schema { return g.sch }

// Edges returns the foreign keys incident to a table.
func (g *Graph) Edges(table string) []schema.ForeignKey {
	return g.adj[strings.ToLower(table)]
}

// Tree is a connected, acyclic set of schema-graph edges: the join skeleton
// of a candidate Project-Join query. A single-table tree has no edges.
type Tree struct {
	Tables []string
	Edges  []schema.ForeignKey
}

// Size returns the number of tables in the tree.
func (t Tree) Size() int { return len(t.Tables) }

// Contains reports whether the tree includes the table.
func (t Tree) Contains(table string) bool {
	for _, tb := range t.Tables {
		if strings.EqualFold(tb, table) {
			return true
		}
	}
	return false
}

// Canonical returns a deterministic signature of the tree (sorted edge
// list, or the table name for single-table trees), used for deduplication.
func (t Tree) Canonical() string {
	if len(t.Edges) == 0 {
		if len(t.Tables) == 0 {
			return ""
		}
		return strings.ToLower(t.Tables[0])
	}
	keys := make([]string, len(t.Edges))
	for i, e := range t.Edges {
		keys[i] = schema.EdgeSignature(e.From, e.To)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// String renders the tree compactly.
func (t Tree) String() string {
	if len(t.Edges) == 0 {
		return strings.Join(t.Tables, ",")
	}
	parts := make([]string, len(t.Edges))
	for i, e := range t.Edges {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// clone deep-copies the tree.
func (t Tree) clone() Tree {
	return Tree{
		Tables: append([]string(nil), t.Tables...),
		Edges:  append([]schema.ForeignKey(nil), t.Edges...),
	}
}

// ConnectedTrees enumerates every connected subtree of the schema graph that
// contains the seed table and has at most maxTables tables. The seed-only
// tree is included. Trees are deduplicated by canonical signature.
func (g *Graph) ConnectedTrees(seed string, maxTables int) []Tree {
	canonicalName := seed
	if tbl, ok := g.sch.Table(seed); ok {
		canonicalName = tbl.Name
	}
	if maxTables < 1 {
		return nil
	}
	start := Tree{Tables: []string{canonicalName}}
	seen := map[string]struct{}{start.Canonical(): {}}
	out := []Tree{start}
	var expand func(t Tree)
	expand = func(t Tree) {
		if t.Size() >= maxTables {
			return
		}
		for _, table := range t.Tables {
			for _, fk := range g.Edges(table) {
				other := fk.To.Table
				if strings.EqualFold(fk.To.Table, table) {
					other = fk.From.Table
				}
				if t.Contains(other) {
					continue
				}
				next := t.clone()
				next.Tables = append(next.Tables, other)
				next.Edges = append(next.Edges, fk)
				key := next.Canonical()
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				out = append(out, next)
				expand(next)
			}
		}
	}
	expand(start)
	return out
}

// Candidate is one candidate schema mapping query: a join tree plus the
// assignment of one source column per target column.
type Candidate struct {
	Tree Tree
	// Projection maps target-column position -> source column.
	Projection []schema.ColumnRef

	// sig is Canonical(), kept by Enumerate; empty on a literal. Its first
	// tree bytes are Tree.Canonical().
	sig  string
	tree int
}

// Canonical returns a deterministic signature of the candidate. Enumerate
// renders it to deduplicate and keeps it — rounds sort and fingerprint
// candidate lists by it — so an enumerated candidate's Tree and Projection
// are read-only; a candidate built as a literal renders it on every call.
func (c Candidate) Canonical() string {
	if c.sig != "" {
		return c.sig
	}
	return c.render()
}

// render builds the signature of a literal candidate. It is apart from
// Canonical so that Canonical inlines: a round sorts its mappings by it.
func (c Candidate) render() string {
	parts := make([]string, 0, len(c.Projection)+1)
	parts = append(parts, c.Tree.Canonical())
	for _, ref := range c.Projection {
		parts = append(parts, strings.ToLower(ref.String()))
	}
	return strings.Join(parts, "#")
}

// ProjectionSignature returns what follows the tree's Canonical in the
// candidate's: its projected columns, each after a '#'. Two candidates with
// the same tree Canonical compare by it as they compare by Canonical.
func (c Candidate) ProjectionSignature() string {
	if c.sig != "" {
		return c.sig[c.tree:]
	}
	return c.renderProjection()
}

// renderProjection is ProjectionSignature of a literal candidate, apart so
// that ProjectionSignature inlines.
func (c Candidate) renderProjection() string {
	return c.render()[len(c.Tree.Canonical()):]
}

// Plan converts the candidate into an executable Project-Join plan.
func (c Candidate) Plan() exec.Plan {
	joins := make([]exec.JoinEdge, len(c.Tree.Edges))
	for i, e := range c.Tree.Edges {
		joins[i] = exec.JoinEdge{Left: e.From, Right: e.To}
	}
	return exec.Plan{
		Tables:  append([]string(nil), c.Tree.Tables...),
		Joins:   joins,
		Project: append([]schema.ColumnRef(nil), c.Projection...),
	}
}

// String renders the candidate.
func (c Candidate) String() string {
	cols := make([]string, len(c.Projection))
	for i, ref := range c.Projection {
		cols[i] = ref.String()
	}
	return fmt.Sprintf("π(%s) over [%s]", strings.Join(cols, ", "), c.Tree)
}

// EnumerateOptions tune candidate enumeration.
type EnumerateOptions struct {
	// MaxTables bounds the join-tree size (default 4).
	MaxTables int
	// MaxCandidates bounds the number of candidates returned (default 5000).
	MaxCandidates int
	// RequireUsefulLeaves drops candidates whose join tree has a leaf table
	// hosting no projected column (such a leaf only filters rows and is
	// never needed for a Project-Join mapping; default true via Enumerate).
	RequireUsefulLeaves bool
}

func (o EnumerateOptions) withDefaults() EnumerateOptions {
	if o.MaxTables <= 0 {
		o.MaxTables = 4
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 5000
	}
	return o
}

// Enumerate is EnumerateContext under a background context.
func Enumerate(g *Graph, related [][]schema.ColumnRef, opts EnumerateOptions) ([]Candidate, error) {
	return EnumerateContext(context.Background(), g, related, opts)
}

// EnumerateContext produces candidate schema mapping queries from the
// per-target-column sets of related source columns. related[i] lists the
// feasible source columns for target column i; every target column must have
// at least one. It polls ctx once per seed table and once per join tree and
// returns ctx.Err() with no candidates when the context has died.
func EnumerateContext(ctx context.Context, g *Graph, related [][]schema.ColumnRef, opts EnumerateOptions) ([]Candidate, error) {
	opts = opts.withDefaults()
	if len(related) == 0 {
		return nil, fmt.Errorf("graphx: no target columns")
	}
	for i, cols := range related {
		if len(cols) == 0 {
			return nil, fmt.Errorf("graphx: target column %d has no related source columns", i+1)
		}
	}
	trees, err := g.seedTrees(ctx, related, opts.MaxTables)
	if err != nil {
		return nil, err
	}
	return newEmitter(related, opts).candidates(ctx, trees)
}

// keyedTree is a join tree with its signature, rendered once by the dedup.
type keyedTree struct {
	Tree
	sig string
}

// seedTrees is the per-seed stage of enumeration: every connected tree of
// at most maxTables tables around a table hosting a related column,
// deduplicated, smaller trees first (cheaper candidates are preferred and
// validated earlier), then by signature.
func (g *Graph) seedTrees(ctx context.Context, related [][]schema.ColumnRef, maxTables int) ([]keyedTree, error) {
	seedSet := make(map[string]string) // lower -> canonical
	for _, cols := range related {
		for _, ref := range cols {
			seedSet[strings.ToLower(ref.Table)] = ref.Table
		}
	}
	seeds := make([]string, 0, len(seedSet))
	for _, t := range seedSet {
		seeds = append(seeds, t)
	}
	sort.Strings(seeds)

	treeSeen := make(map[string]struct{})
	var trees []keyedTree
	for _, seed := range seeds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, t := range g.ConnectedTrees(seed, maxTables) {
			key := t.Canonical()
			if _, dup := treeSeen[key]; dup {
				continue
			}
			treeSeen[key] = struct{}{}
			trees = append(trees, keyedTree{Tree: t, sig: key})
		}
	}
	sort.Slice(trees, func(i, j int) bool {
		if trees[i].Size() != trees[j].Size() {
			return trees[i].Size() < trees[j].Size()
		}
		return trees[i].Canonical() < trees[j].Canonical()
	})
	return trees, nil
}

// emitter is the candidate stage of enumeration: the cartesian product of
// the related columns each join tree hosts. What is fixed per round (each
// related column's table and signature part) is folded once, what is fixed
// per tree once per tree, so a candidate costs its projection, its
// signature and one map probe.
type emitter struct {
	opts    EnumerateOptions
	related [][]schema.ColumnRef
	// tables lists the distinct table spellings of the related columns;
	// table[c][k] indexes the table of related[c][k] in it, and part[c][k]
	// is that column's part of a candidate signature.
	tables []string
	table  [][]int32
	part   [][]string

	// The current tree: pos[ti] is tables[ti]'s position in it (-1 when it
	// is not in the tree), choices[c] the indexes into related[c] of the
	// columns it hosts, and leaves its leaf positions when useful leaves
	// are required. count[p] is how many columns of the assignment
	// position p hosts; emit adds and takes back, so it is all zeros
	// between trees.
	tree    keyedTree
	pos     []int32
	choices [][]int32
	leaves  []int32
	count   []int32

	pick []int32 // per target column, the index into related[c] assigned
	buf  []byte  // the signature being built
	seen map[string]struct{}
	out  []Candidate
}

func newEmitter(related [][]schema.ColumnRef, opts EnumerateOptions) *emitter {
	e := &emitter{
		opts: opts, related: related,
		table: make([][]int32, len(related)), part: make([][]string, len(related)),
		choices: make([][]int32, len(related)), pick: make([]int32, len(related)),
		seen: make(map[string]struct{}),
	}
	index := make(map[string]int32)
	for c, cols := range related {
		e.table[c], e.part[c] = make([]int32, len(cols)), make([]string, len(cols))
		for k, ref := range cols {
			ti, ok := index[ref.Table]
			if !ok {
				ti = int32(len(e.tables))
				index[ref.Table] = ti
				e.tables = append(e.tables, ref.Table)
			}
			e.table[c][k], e.part[c][k] = ti, "#"+strings.ToLower(ref.String())
		}
	}
	e.pos, e.count = make([]int32, len(e.tables)), make([]int32, opts.MaxTables)
	return e
}

// candidates emits the candidates of every tree, in tree order, until
// MaxCandidates are out.
func (e *emitter) candidates(ctx context.Context, trees []keyedTree) ([]Candidate, error) {
	for _, tree := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(e.out) >= e.opts.MaxCandidates {
			break
		}
		if e.useTree(tree) {
			e.emit(0)
		}
	}
	return e.out, nil
}

// useTree computes the per-tree facts and reports whether the tree hosts a
// related column of every target column. A related column is in the tree
// when its table is, by Tree.Contains's case-insensitive comparison.
func (e *emitter) useTree(t keyedTree) bool {
	for ti, name := range e.tables {
		e.pos[ti] = tablePosition(t.Tables, name)
	}
	for c, tables := range e.table {
		e.choices[c] = e.choices[c][:0]
		for k, ti := range tables {
			if e.pos[ti] >= 0 {
				e.choices[c] = append(e.choices[c], int32(k))
			}
		}
		if len(e.choices[c]) == 0 {
			return false
		}
	}
	e.tree, e.leaves = t, e.leaves[:0]
	if e.opts.RequireUsefulLeaves && t.Size() > 1 {
		// The leaves are the tables of degree <= 1, as in Tree.Leaves.
		for p, name := range t.Tables {
			degree := 0
			for _, fk := range t.Edges {
				if strings.EqualFold(fk.From.Table, name) || strings.EqualFold(fk.To.Table, name) {
					degree++
				}
			}
			if degree <= 1 {
				e.leaves = append(e.leaves, int32(p))
			}
		}
	}
	return true
}

// emit assigns target column col and the ones after it in every way the
// tree allows, and reports false once MaxCandidates are out.
func (e *emitter) emit(col int) bool {
	if len(e.out) >= e.opts.MaxCandidates {
		return false
	}
	if col == len(e.related) {
		e.add()
		return true
	}
	for _, k := range e.choices[col] {
		p := e.pos[e.table[col][k]]
		e.pick[col] = k
		e.count[p]++
		more := e.emit(col + 1)
		e.count[p]--
		if !more {
			return false
		}
	}
	return true
}

// add emits the current assignment unless a leaf of the tree hosts no
// projected column (with RequireUsefulLeaves) or its signature was seen.
func (e *emitter) add() {
	for _, p := range e.leaves {
		if e.count[p] == 0 {
			return
		}
	}
	e.buf = append(e.buf[:0], e.tree.sig...)
	for c, k := range e.pick {
		e.buf = append(e.buf, e.part[c][k]...)
	}
	if _, dup := e.seen[string(e.buf)]; dup {
		return
	}
	sig := string(e.buf)
	e.seen[sig] = struct{}{}
	projection := make([]schema.ColumnRef, len(e.pick))
	for c, k := range e.pick {
		projection[c] = e.related[c][k]
	}
	e.out = append(e.out, Candidate{Tree: e.tree.Tree, Projection: projection, sig: sig, tree: len(e.tree.sig)})
}

// tablePosition returns the position of a table in tables, compared as
// Tree.Contains compares, or -1.
func tablePosition(tables []string, table string) int32 {
	for p, name := range tables {
		if strings.EqualFold(name, table) {
			return int32(p)
		}
	}
	return -1
}
