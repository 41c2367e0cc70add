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

// Neighbors returns the tables adjacent to a table in the schema graph.
func (g *Graph) Neighbors(table string) []string {
	var out []string
	seen := make(map[string]struct{})
	for _, fk := range g.Edges(table) {
		other := fk.To.Table
		if strings.EqualFold(other, table) {
			other = fk.From.Table
		}
		key := strings.ToLower(other)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, other)
	}
	sort.Strings(out)
	return out
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

// Leaves returns the tables of degree <= 1 within the tree.
func (t Tree) Leaves() []string {
	if len(t.Tables) == 1 {
		return append([]string(nil), t.Tables...)
	}
	degree := make(map[string]int)
	for _, e := range t.Edges {
		degree[strings.ToLower(e.From.Table)]++
		degree[strings.ToLower(e.To.Table)]++
	}
	var out []string
	for _, tb := range t.Tables {
		if degree[strings.ToLower(tb)] <= 1 {
			out = append(out, tb)
		}
	}
	sort.Strings(out)
	return out
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
		keys[i] = edgeSignature(e)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// edgeSignature renders a foreign key independently of its direction and
// of letter case.
func edgeSignature(e schema.ForeignKey) string {
	a, b := strings.ToLower(e.From.String()), strings.ToLower(e.To.String())
	if a > b {
		a, b = b, a
	}
	return a + "=" + b
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

	// sig is Canonical(), kept by Enumerate; empty on a literal.
	sig string
}

// Canonical returns a deterministic signature of the candidate. Enumerate
// renders it to deduplicate and keeps it — rounds sort and fingerprint
// candidate lists by it — so an enumerated candidate's Tree and Projection
// are read-only; a candidate built as a literal renders it on every call.
func (c Candidate) Canonical() string {
	if c.sig != "" {
		return c.sig
	}
	parts := make([]string, 0, len(c.Projection)+1)
	parts = append(parts, c.Tree.Canonical())
	for _, ref := range c.Projection {
		parts = append(parts, strings.ToLower(ref.String()))
	}
	return strings.Join(parts, "#")
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

	// Seed tables: every table hosting at least one related column.
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

	// Enumerate candidate trees from every seed, deduplicated.
	treeSeen := make(map[string]struct{})
	var trees []Tree
	for _, seed := range seeds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, t := range g.ConnectedTrees(seed, opts.MaxTables) {
			key := t.Canonical()
			if _, dup := treeSeen[key]; dup {
				continue
			}
			treeSeen[key] = struct{}{}
			trees = append(trees, t)
		}
	}
	// Deterministic order: smaller trees first (cheaper candidates are
	// preferred and validated earlier), then by signature.
	sort.Slice(trees, func(i, j int) bool {
		if trees[i].Size() != trees[j].Size() {
			return trees[i].Size() < trees[j].Size()
		}
		return trees[i].Canonical() < trees[j].Canonical()
	})

	candSeen := make(map[string]struct{})
	var out []Candidate
	for _, tree := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Related columns available inside this tree, per target column.
		choices := make([][]schema.ColumnRef, len(related))
		feasible := true
		for i, cols := range related {
			for _, ref := range cols {
				if tree.Contains(ref.Table) {
					choices[i] = append(choices[i], ref)
				}
			}
			if len(choices[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		// Cartesian product of per-column choices.
		assignment := make([]schema.ColumnRef, len(related))
		var emit func(col int) bool
		emit = func(col int) bool {
			if len(out) >= opts.MaxCandidates {
				return false
			}
			if col == len(related) {
				cand := Candidate{Tree: tree, Projection: append([]schema.ColumnRef(nil), assignment...)}
				if opts.RequireUsefulLeaves && !leavesUseful(tree, cand.Projection) {
					return true
				}
				cand.sig = cand.Canonical()
				if _, dup := candSeen[cand.sig]; dup {
					return true
				}
				candSeen[cand.sig] = struct{}{}
				out = append(out, cand)
				return true
			}
			for _, ref := range choices[col] {
				assignment[col] = ref
				if !emit(col + 1) {
					return false
				}
			}
			return true
		}
		if !emit(0) {
			break
		}
	}
	return out, nil
}

// leavesUseful reports whether every leaf table of the tree hosts at least
// one projected column.
func leavesUseful(tree Tree, projection []schema.ColumnRef) bool {
	if tree.Size() <= 1 {
		return true
	}
	used := make(map[string]bool)
	for _, ref := range projection {
		used[strings.ToLower(ref.Table)] = true
	}
	for _, leaf := range tree.Leaves() {
		if !used[strings.ToLower(leaf)] {
			return false
		}
	}
	return true
}
