// Package exec executes parsed SELECT statements against a storage.DB. It
// is the substrate for the paper's runtime experiment (§6.3): the same
// statements — original antipattern sequences and their rewrites — run
// against the same data, and a cost model charges the per-statement overhead
// (network round trip, parse, plan) that makes batched rewrites ~29× faster
// on the authors' testbed.
package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/storage"
)

// CostModel assigns virtual time to execution work. It separates the
// network round trip (paid once per client request) from the per-statement
// server work (parse, plan, execute setup): the paper's Pack refactoring
// (Example 6) batches many statements into one request and thereby saves
// round trips but not server work, while the merge rewrites (Examples 10,
// 12, 14) save both. The defaults make one short singleton statement cost
// ≈ 0.4 s, matching the per-statement cost implied by the paper's §6.3
// numbers (10 222 statements → 4 450 s).
type CostModel struct {
	// PerRoundTrip is the network cost of one client request (Execute or
	// ExecuteBatch call).
	PerRoundTrip time.Duration
	// PerStatement is the server-side cost of one statement: parsing,
	// planning, execution setup.
	PerStatement time.Duration
	// PerRowScan is charged for every row read from a table or index.
	PerRowScan time.Duration
	// PerRowOut is charged for every result row shipped to the client.
	PerRowOut time.Duration
}

// DefaultCostModel reproduces the §6.3 regime: statement overhead dominates.
func DefaultCostModel() CostModel {
	return CostModel{
		PerRoundTrip: 350 * time.Millisecond,
		PerStatement: 50 * time.Millisecond,
		PerRowScan:   2 * time.Microsecond,
		PerRowOut:    50 * time.Microsecond,
	}
}

// Stats accumulates execution work across statements.
type Stats struct {
	// RoundTrips counts client requests (Execute and ExecuteBatch calls).
	RoundTrips int
	// Statements counts executed statements; a batch contributes one per
	// member.
	Statements   int
	RowsScanned  int64
	RowsReturned int64
	IndexLookups int64
}

// Add accumulates another Stats.
func (s *Stats) Add(o Stats) {
	s.RoundTrips += o.RoundTrips
	s.Statements += o.Statements
	s.RowsScanned += o.RowsScanned
	s.RowsReturned += o.RowsReturned
	s.IndexLookups += o.IndexLookups
}

// Cost converts the accumulated work into virtual time under the model.
func (s Stats) Cost(m CostModel) time.Duration {
	return time.Duration(s.RoundTrips)*m.PerRoundTrip +
		time.Duration(s.Statements)*m.PerStatement +
		time.Duration(s.RowsScanned)*m.PerRowScan +
		time.Duration(s.RowsReturned)*m.PerRowOut
}

// TableFunc emulates a table-valued function: it receives the evaluated
// argument values and returns a result relation.
type TableFunc func(args []storage.Value) (*Relation, error)

// Relation is an intermediate or final result: named, alias-scoped columns
// over rows.
type Relation struct {
	Cols []ColInfo
	Rows []storage.Row
}

// ColInfo names one relation column and the alias scope it belongs to.
type ColInfo struct {
	Alias string // lower-cased source alias/table name; "" for computed
	Name  string // lower-cased column name
}

// ResultSet is what Execute returns to the client.
type ResultSet struct {
	Cols []string
	Rows []storage.Row
}

// Engine executes statements. Not safe for concurrent use.
type Engine struct {
	DB    *storage.DB
	Stats Stats
	funcs map[string]TableFunc
}

// New returns an engine over the database.
func New(db *storage.DB) *Engine {
	return &Engine{DB: db, funcs: map[string]TableFunc{}}
}

// RegisterFunc installs a table-valued function under a (case-insensitive)
// name.
func (e *Engine) RegisterFunc(name string, fn TableFunc) {
	e.funcs[strings.ToLower(name)] = fn
}

// Execute parses and runs one SELECT statement (one round trip).
func (e *Engine) Execute(sql string) (*ResultSet, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	e.Stats.RoundTrips++
	return e.ExecuteSelect(sel)
}

// ExecuteBatch runs a semicolon-separated batch of SELECT statements in one
// round trip — the Pack refactoring of the paper's Example 6: network
// overhead is paid once, server work once per statement. It returns one
// result set per statement; on the first error it stops and returns the
// results so far.
func (e *Engine) ExecuteBatch(sql string) ([]*ResultSet, error) {
	stmts, err := sqlparser.SplitStatements(sql)
	if err != nil {
		return nil, err
	}
	e.Stats.RoundTrips++
	var out []*ResultSet
	for _, s := range stmts {
		sel, err := sqlparser.ParseSelect(s)
		if err != nil {
			return out, err
		}
		rs, err := e.ExecuteSelect(sel)
		if err != nil {
			return out, err
		}
		out = append(out, rs)
	}
	return out, nil
}

// ExecuteSelect runs a parsed SELECT statement.
func (e *Engine) ExecuteSelect(sel *sqlast.SelectStatement) (*ResultSet, error) {
	e.Stats.Statements++
	rel, err := e.evalQuery(sel)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Rows: rel.Rows}
	for _, c := range rel.Cols {
		rs.Cols = append(rs.Cols, c.Name)
	}
	e.Stats.RowsReturned += int64(len(rs.Rows))
	return rs, nil
}

// evalQuery evaluates a (possibly UNION-chained) select into a relation.
func (e *Engine) evalQuery(sel *sqlast.SelectStatement) (*Relation, error) {
	rel, err := e.evalSimpleSelect(sel)
	if err != nil {
		return nil, err
	}
	if sel.SetOp == "" || sel.SetRight == nil {
		return rel, nil
	}
	right, err := e.evalQuery(sel.SetRight)
	if err != nil {
		return nil, err
	}
	if len(right.Cols) != len(rel.Cols) {
		return nil, fmt.Errorf("exec: %s operands have %d and %d columns", sel.SetOp, len(rel.Cols), len(right.Cols))
	}
	switch sel.SetOp {
	case "UNION ALL":
		rel.Rows = append(rel.Rows, right.Rows...)
		return rel, nil
	case "UNION":
		rel.Rows = append(rel.Rows, right.Rows...)
		rel.Rows = distinctRows(rel.Rows)
		return rel, nil
	case "EXCEPT":
		keys := rowKeySet(right.Rows)
		var kept []storage.Row
		for _, r := range distinctRows(rel.Rows) {
			if !keys[rowKey(r)] {
				kept = append(kept, r)
			}
		}
		rel.Rows = kept
		return rel, nil
	case "INTERSECT":
		keys := rowKeySet(right.Rows)
		var kept []storage.Row
		for _, r := range distinctRows(rel.Rows) {
			if keys[rowKey(r)] {
				kept = append(kept, r)
			}
		}
		rel.Rows = kept
		return rel, nil
	}
	return nil, fmt.Errorf("exec: unsupported set operation %s", sel.SetOp)
}

func rowKey(r storage.Row) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte('\x01')
	}
	return b.String()
}

func rowKeySet(rows []storage.Row) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		out[rowKey(r)] = true
	}
	return out
}

func distinctRows(rows []storage.Row) []storage.Row {
	seen := map[string]bool{}
	var out []storage.Row
	for _, r := range rows {
		k := rowKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func (e *Engine) evalSimpleSelect(sel *sqlast.SelectStatement) (*Relation, error) {
	// FROM.
	var src *Relation
	if len(sel.From) == 0 {
		src = &Relation{Rows: []storage.Row{{}}} // one empty row: SELECT 1
	} else {
		var err error
		src, err = e.evalFromEntry(sel.From[0], sel.Where)
		if err != nil {
			return nil, err
		}
		for _, ts := range sel.From[1:] {
			next, err := e.evalFromEntry(ts, nil)
			if err != nil {
				return nil, err
			}
			src = crossProduct(src, next)
		}
	}

	// WHERE.
	if sel.Where != nil {
		var kept []storage.Row
		for _, row := range src.Rows {
			v, err := e.evalExpr(sel.Where, src.Cols, row)
			if err != nil {
				return nil, err
			}
			if v.Truth() {
				kept = append(kept, row)
			}
		}
		src.Rows = kept
	}

	// GROUP BY / aggregates.
	out, err := e.project(sel, src)
	if err != nil {
		return nil, err
	}

	// DISTINCT.
	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
	}

	// ORDER BY (over output columns or source expressions; we sort on the
	// projected relation by re-evaluating order expressions against the
	// source when possible, falling back to output column names).
	if len(sel.OrderBy) > 0 {
		if hasAggregates(sel) || len(sel.GroupBy) > 0 {
			if err := e.orderGroupedOutput(sel, out); err != nil {
				return nil, err
			}
		} else if err := e.orderRelation(sel, src, out); err != nil {
			return nil, err
		}
	}

	// TOP.
	if sel.Top != nil {
		n, err := topCount(sel, len(out.Rows))
		if err != nil {
			return nil, err
		}
		if n < len(out.Rows) {
			out.Rows = out.Rows[:n]
		}
	}
	return out, nil
}

func topCount(sel *sqlast.SelectStatement, total int) (int, error) {
	var n float64
	if _, err := fmt.Sscanf(sel.Top.Val, "%g", &n); err != nil {
		return 0, fmt.Errorf("exec: bad TOP count %q", sel.Top.Val)
	}
	if sel.TopPercent {
		c := int(float64(total) * n / 100)
		if c < 1 && total > 0 && n > 0 {
			c = 1
		}
		return c, nil
	}
	return int(n), nil
}

// orderRelation sorts out.Rows (parallel with src.Rows) by the ORDER BY
// expressions evaluated against the source relation.
func (e *Engine) orderRelation(sel *sqlast.SelectStatement, src, out *Relation) error {
	if len(out.Rows) != len(src.Rows) {
		return nil // projection changed cardinality (aggregates) — skip
	}
	type pair struct {
		keys []storage.Value
		row  storage.Row
	}
	pairs := make([]pair, len(out.Rows))
	for i := range out.Rows {
		keys := make([]storage.Value, len(sel.OrderBy))
		for k, oi := range sel.OrderBy {
			// ORDER BY <n> sorts by the n-th output column (1-based).
			if pos, ok := positionalOrder(oi.Expr, len(out.Cols)); ok {
				keys[k] = out.Rows[i][pos]
				continue
			}
			v, err := e.evalExpr(oi.Expr, src.Cols, src.Rows[i])
			if err != nil {
				// Fall back to output columns by name.
				v2, err2 := e.evalExpr(oi.Expr, out.Cols, out.Rows[i])
				if err2 != nil {
					return err
				}
				v = v2
			}
			keys[k] = v
		}
		pairs[i] = pair{keys: keys, row: out.Rows[i]}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		for k, oi := range sel.OrderBy {
			c, ok := storage.Compare(pairs[a].keys[k], pairs[b].keys[k])
			if !ok {
				// NULLs sort first ascending.
				an, bn := pairs[a].keys[k].IsNull(), pairs[b].keys[k].IsNull()
				if an != bn {
					if oi.Desc {
						return bn
					}
					return an
				}
				continue
			}
			if c == 0 {
				continue
			}
			if oi.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range pairs {
		out.Rows[i] = pairs[i].row
	}
	return nil
}

// orderGroupedOutput sorts an aggregated result by its own output columns:
// each ORDER BY item must either name an output column (alias or plain
// name) or textually match one of the select items (e.g. "count(*)").
func (e *Engine) orderGroupedOutput(sel *sqlast.SelectStatement, out *Relation) error {
	keyIdx := make([]int, len(sel.OrderBy))
	for k, oi := range sel.OrderBy {
		idx := -1
		if pos, ok := positionalOrder(oi.Expr, len(out.Cols)); ok {
			idx = pos
		}
		if c, ok := oi.Expr.(*sqlast.ColumnRef); ok && !c.Star {
			name := strings.ToLower(c.Name)
			for i, col := range out.Cols {
				if col.Name == name {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			want := sqlast.PrintExpr(oi.Expr, sqlast.PrintOptions{NormalizeIdents: true})
			for i, it := range sel.Items {
				if sqlast.PrintExpr(it.Expr, sqlast.PrintOptions{NormalizeIdents: true}) == want {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return fmt.Errorf("exec: ORDER BY item %d does not name an output column of the aggregation", k+1)
		}
		keyIdx[k] = idx
	}
	sort.SliceStable(out.Rows, func(a, b int) bool {
		for k, oi := range sel.OrderBy {
			va, vb := out.Rows[a][keyIdx[k]], out.Rows[b][keyIdx[k]]
			c, ok := storage.Compare(va, vb)
			if !ok {
				an, bn := va.IsNull(), vb.IsNull()
				if an != bn {
					if oi.Desc {
						return bn
					}
					return an
				}
				continue
			}
			if c == 0 {
				continue
			}
			if oi.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// positionalOrder recognizes ORDER BY <n> (1-based output column).
func positionalOrder(x sqlast.Expr, cols int) (int, bool) {
	lit, ok := x.(*sqlast.Literal)
	if !ok || lit.Kind != "num" {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(lit.Val, "%d", &n); err != nil || n < 1 || n > cols {
		return 0, false
	}
	return n - 1, true
}

// evalFromEntry materializes one FROM entry. where (may be nil) lets a base
// table scan use an index for equality/IN predicates on indexed columns.
func (e *Engine) evalFromEntry(ts sqlast.TableSource, where sqlast.Expr) (*Relation, error) {
	switch t := ts.(type) {
	case *sqlast.TableRef:
		return e.scanTable(t, where)
	case *sqlast.FuncSource:
		return e.callTableFunc(t)
	case *sqlast.DerivedTable:
		rel, err := e.evalQuery(t.Sub)
		if err != nil {
			return nil, err
		}
		alias := strings.ToLower(t.Alias)
		for i := range rel.Cols {
			rel.Cols[i].Alias = alias
		}
		return rel, nil
	case *sqlast.Join:
		return e.evalJoin(t)
	}
	return nil, fmt.Errorf("exec: unsupported FROM entry %T", ts)
}

func (e *Engine) scanTable(t *sqlast.TableRef, where sqlast.Expr) (*Relation, error) {
	tbl, ok := e.DB.Table(t.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no table %s", t.Name)
	}
	alias := strings.ToLower(t.Alias)
	if alias == "" {
		alias = strings.ToLower(t.Name)
	}
	rel := &Relation{}
	for _, c := range tbl.Def.Columns {
		rel.Cols = append(rel.Cols, ColInfo{Alias: alias, Name: strings.ToLower(c.Name)})
	}

	// Index path: a WHERE conjunct of the form col = literal or col IN
	// (literals...) over an indexed column of this table.
	if positions, ok := e.indexCandidates(tbl, alias, where); ok {
		for _, pos := range positions {
			rel.Rows = append(rel.Rows, tbl.Rows[pos])
		}
		e.Stats.RowsScanned += int64(len(positions))
		e.Stats.IndexLookups++
		return rel, nil
	}

	rel.Rows = append(rel.Rows, tbl.Rows...)
	e.Stats.RowsScanned += int64(len(tbl.Rows))
	return rel, nil
}

// indexCandidates inspects the WHERE conjuncts for an indexable equality or
// IN predicate on the scanned table and returns candidate row positions.
func (e *Engine) indexCandidates(tbl *storage.Table, alias string, where sqlast.Expr) ([]int, bool) {
	if where == nil {
		return nil, false
	}
	var conjuncts []sqlast.Expr
	collectConjuncts(where, &conjuncts)
	for _, c := range conjuncts {
		switch x := c.(type) {
		case *sqlast.BinaryExpr:
			if x.Op != "=" {
				continue
			}
			col, lit := splitColLit(x.Left, x.Right)
			if col == nil || lit == nil {
				continue
			}
			if !colMatches(col, alias) || !tbl.HasIndex(col.Name) {
				continue
			}
			v, err := literalValue(lit)
			if err != nil {
				continue
			}
			pos, _ := tbl.Lookup(col.Name, v)
			return pos, true
		case *sqlast.InExpr:
			col, ok := x.X.(*sqlast.ColumnRef)
			if !ok || x.Not || x.Sub != nil || !colMatches(col, alias) || !tbl.HasIndex(col.Name) {
				continue
			}
			var pos []int
			seen := map[int]bool{}
			okAll := true
			for _, it := range x.List {
				lit, isLit := it.(*sqlast.Literal)
				if !isLit {
					okAll = false
					break
				}
				v, err := literalValue(lit)
				if err != nil {
					okAll = false
					break
				}
				p, _ := tbl.Lookup(col.Name, v)
				for _, i := range p {
					if !seen[i] {
						seen[i] = true
						pos = append(pos, i)
					}
				}
			}
			if okAll {
				sort.Ints(pos)
				return pos, true
			}
		}
	}
	return nil, false
}

func collectConjuncts(e sqlast.Expr, out *[]sqlast.Expr) {
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		if x.Op == "AND" {
			collectConjuncts(x.Left, out)
			collectConjuncts(x.Right, out)
			return
		}
	case *sqlast.ParenExpr:
		collectConjuncts(x.X, out)
		return
	}
	*out = append(*out, e)
}

func splitColLit(a, b sqlast.Expr) (*sqlast.ColumnRef, *sqlast.Literal) {
	if c, ok := a.(*sqlast.ColumnRef); ok && !c.Star {
		if l, ok := b.(*sqlast.Literal); ok {
			return c, l
		}
	}
	if c, ok := b.(*sqlast.ColumnRef); ok && !c.Star {
		if l, ok := a.(*sqlast.Literal); ok {
			return c, l
		}
	}
	return nil, nil
}

// colMatches reports whether the column reference can belong to the scan
// with the given alias (unqualified references match any alias).
func colMatches(c *sqlast.ColumnRef, alias string) bool {
	return c.Qualifier == "" || strings.ToLower(c.Qualifier) == alias
}

func (e *Engine) callTableFunc(t *sqlast.FuncSource) (*Relation, error) {
	fn, ok := e.funcs[strings.ToLower(t.Call.Name)]
	if !ok {
		return nil, fmt.Errorf("exec: unknown table function %s", t.Call.Name)
	}
	args := make([]storage.Value, 0, len(t.Call.Args))
	for _, a := range t.Call.Args {
		v, err := e.evalExpr(a, nil, nil)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	rel, err := fn(args)
	if err != nil {
		return nil, err
	}
	alias := strings.ToLower(t.Alias)
	if alias == "" {
		alias = strings.ToLower(t.Call.Name)
	}
	for i := range rel.Cols {
		rel.Cols[i].Alias = alias
	}
	e.Stats.RowsScanned += int64(len(rel.Rows))
	return rel, nil
}

func (e *Engine) evalJoin(j *sqlast.Join) (*Relation, error) {
	left, err := e.evalFromEntry(j.Left, nil)
	if err != nil {
		return nil, err
	}
	right, err := e.evalFromEntry(j.Right, nil)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case sqlast.CrossJoin, sqlast.CrossApply:
		return crossProduct(left, right), nil
	case sqlast.OuterApply:
		return e.outerJoinRows(left, right, nil, true, false)
	case sqlast.InnerJoin:
		return e.joinOn(left, right, j.Cond, false, false)
	case sqlast.LeftJoin:
		return e.joinOn(left, right, j.Cond, true, false)
	case sqlast.RightJoin:
		return e.joinOn(left, right, j.Cond, false, true)
	case sqlast.FullJoin:
		return e.joinOn(left, right, j.Cond, true, true)
	}
	return nil, fmt.Errorf("exec: unsupported join kind %v", j.Kind)
}

func crossProduct(a, b *Relation) *Relation {
	out := &Relation{Cols: append(append([]ColInfo{}, a.Cols...), b.Cols...)}
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			row := make(storage.Row, 0, len(ra)+len(rb))
			row = append(row, ra...)
			row = append(row, rb...)
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// joinOn performs a (hash when possible, else nested-loop) join.
func (e *Engine) joinOn(left, right *Relation, cond sqlast.Expr, leftOuter, rightOuter bool) (*Relation, error) {
	cols := append(append([]ColInfo{}, left.Cols...), right.Cols...)
	out := &Relation{Cols: cols}

	// Hash path: single equality between one left column and one right
	// column.
	if lIdx, rIdx, ok := equiJoinColumns(cond, left, right); ok {
		build := make(map[string][]int, len(right.Rows))
		for i, rr := range right.Rows {
			build[rr[rIdx].Key()] = append(build[rr[rIdx].Key()], i)
		}
		matchedRight := make([]bool, len(right.Rows))
		for _, lr := range left.Rows {
			matches := build[lr[lIdx].Key()]
			if lr[lIdx].IsNull() {
				matches = nil
			}
			if len(matches) == 0 {
				if leftOuter {
					out.Rows = append(out.Rows, padRow(lr, len(right.Cols), false))
				}
				continue
			}
			for _, ri := range matches {
				matchedRight[ri] = true
				row := make(storage.Row, 0, len(lr)+len(right.Rows[ri]))
				row = append(row, lr...)
				row = append(row, right.Rows[ri]...)
				out.Rows = append(out.Rows, row)
			}
		}
		if rightOuter {
			for i, m := range matchedRight {
				if !m {
					out.Rows = append(out.Rows, padRow(right.Rows[i], len(left.Cols), true))
				}
			}
		}
		return out, nil
	}

	// Nested loop.
	matchedRight := make([]bool, len(right.Rows))
	for _, lr := range left.Rows {
		matched := false
		for ri, rr := range right.Rows {
			row := make(storage.Row, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			v, err := e.evalExpr(cond, cols, row)
			if err != nil {
				return nil, err
			}
			if v.Truth() {
				matched = true
				matchedRight[ri] = true
				out.Rows = append(out.Rows, row)
			}
		}
		if !matched && leftOuter {
			out.Rows = append(out.Rows, padRow(lr, len(right.Cols), false))
		}
	}
	if rightOuter {
		for i, m := range matchedRight {
			if !m {
				out.Rows = append(out.Rows, padRow(right.Rows[i], len(left.Cols), true))
			}
		}
	}
	return out, nil
}

// outerJoinRows implements APPLY-style joins without a condition.
func (e *Engine) outerJoinRows(left, right *Relation, _ sqlast.Expr, leftOuter, _ bool) (*Relation, error) {
	if len(right.Rows) == 0 && leftOuter {
		out := &Relation{Cols: append(append([]ColInfo{}, left.Cols...), right.Cols...)}
		for _, lr := range left.Rows {
			out.Rows = append(out.Rows, padRow(lr, len(right.Cols), false))
		}
		return out, nil
	}
	return crossProduct(left, right), nil
}

func padRow(r storage.Row, n int, padLeft bool) storage.Row {
	row := make(storage.Row, 0, len(r)+n)
	if padLeft {
		for i := 0; i < n; i++ {
			row = append(row, storage.Null)
		}
		return append(row, r...)
	}
	row = append(row, r...)
	for i := 0; i < n; i++ {
		row = append(row, storage.Null)
	}
	return row
}

// equiJoinColumns recognizes cond of the form leftCol = rightCol and
// returns the column indexes in each relation.
func equiJoinColumns(cond sqlast.Expr, left, right *Relation) (int, int, bool) {
	be, ok := cond.(*sqlast.BinaryExpr)
	if !ok || be.Op != "=" {
		return 0, 0, false
	}
	a, okA := be.Left.(*sqlast.ColumnRef)
	b, okB := be.Right.(*sqlast.ColumnRef)
	if !okA || !okB || a.Star || b.Star {
		return 0, 0, false
	}
	la, inLeftA := findCol(left.Cols, a)
	rb, inRightB := findCol(right.Cols, b)
	if inLeftA && inRightB {
		return la, rb, true
	}
	lb, inLeftB := findCol(left.Cols, b)
	ra, inRightA := findCol(right.Cols, a)
	if inLeftB && inRightA {
		return lb, ra, true
	}
	return 0, 0, false
}

func findCol(cols []ColInfo, c *sqlast.ColumnRef) (int, bool) {
	name := strings.ToLower(c.Name)
	qual := strings.ToLower(c.Qualifier)
	for i, ci := range cols {
		if ci.Name != name {
			continue
		}
		if qual == "" || ci.Alias == qual {
			return i, true
		}
	}
	return 0, false
}
