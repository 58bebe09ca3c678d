// Package schema provides the database catalog the framework consults when
// classifying antipatterns. Definition 11 of the paper requires the Stifle's
// filter column to be a key attribute, which can only be decided against a
// schema. The catalog also records foreign-key links, used by the DF-Stifle
// rewriter to join tables that share a key.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one column of a table.
type Column struct {
	Name string
	// Type is a coarse type tag: "int", "float", "string". Used by the
	// in-memory engine, not by detection.
	Type string
	// Key marks primary-key columns and columns that uniquely identify a
	// row (the paper's "key attributes").
	Key bool
}

// Table describes one table.
type Table struct {
	Name    string
	Columns []Column
	byName  map[string]int
}

// Column returns the column with the given (case-insensitive) name.
func (t *Table) Column(name string) (Column, bool) {
	i, ok := t.byName[strings.ToLower(name)]
	if !ok {
		return Column{}, false
	}
	return t.Columns[i], true
}

// Catalog is a set of tables plus key metadata. The zero value is unusable;
// construct with New.
type Catalog struct {
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{tables: map[string]*Table{}} }

// AddTable registers a table. Column and table names are matched
// case-insensitively. Adding a table that already exists replaces it.
func (c *Catalog) AddTable(name string, cols ...Column) *Table {
	t := &Table{Name: name, Columns: cols, byName: map[string]int{}}
	for i, col := range cols {
		t.byName[strings.ToLower(col.Name)] = i
	}
	c.tables[strings.ToLower(name)] = t
	return t
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// IsKey reports whether column is a key attribute of the named table.
func (c *Catalog) IsKey(table, column string) bool {
	t, ok := c.Table(table)
	if !ok {
		return false
	}
	col, ok := t.Column(column)
	return ok && col.Key
}

// IsKeyInAny reports whether column is a key attribute in at least one of
// the given tables. Queries often leave columns unqualified, so the Stifle
// detector asks this weaker question over the statement's referenced tables.
// With an empty table list it falls back to scanning the whole catalog.
func (c *Catalog) IsKeyInAny(column string, tables []string) bool {
	if len(tables) == 0 {
		for _, t := range c.tables {
			if col, ok := t.Column(column); ok && col.Key {
				return true
			}
		}
		return false
	}
	for _, name := range tables {
		if c.IsKey(name, column) {
			return true
		}
	}
	return false
}

// SharedKey returns a key column present in every one of the given tables,
// if any — the join column the DF-Stifle rewriter uses. Deterministic: the
// lexicographically smallest such column wins.
func (c *Catalog) SharedKey(tables []string) (string, bool) {
	if len(tables) == 0 {
		return "", false
	}
	first, ok := c.Table(tables[0])
	if !ok {
		return "", false
	}
	var candidates []string
	for _, col := range first.Columns {
		if !col.Key {
			continue
		}
		inAll := true
		for _, other := range tables[1:] {
			t, ok := c.Table(other)
			if !ok {
				inAll = false
				break
			}
			if _, ok := t.Column(col.Name); !ok {
				inAll = false
				break
			}
		}
		if inAll {
			candidates = append(candidates, strings.ToLower(col.Name))
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	sort.Strings(candidates)
	return candidates[0], true
}

// Validate checks internal consistency (duplicate columns, empty tables) and
// returns a descriptive error for the first problem found.
func (c *Catalog) Validate() error {
	for name, t := range c.tables {
		if len(t.Columns) == 0 {
			return fmt.Errorf("schema: table %s has no columns", name)
		}
		seen := map[string]bool{}
		for _, col := range t.Columns {
			lc := strings.ToLower(col.Name)
			if seen[lc] {
				return fmt.Errorf("schema: table %s has duplicate column %s", name, col.Name)
			}
			seen[lc] = true
		}
	}
	return nil
}
