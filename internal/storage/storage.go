// Package storage is an in-memory relational store: typed columns, row
// storage and hash indexes. Together with package exec it substitutes for
// the SQL Server instance of the paper's runtime experiment (§6.3) — it
// executes the original and the rewritten statements against the same data
// so the rewrite speedup can be measured without the authors' testbed.
package storage

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sqlclean/internal/schema"
)

// Value is one cell. The zero value is SQL NULL.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
}

// ValueKind tags the runtime type of a Value.
type ValueKind byte

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Null is the SQL NULL value.
var Null = Value{}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// Truth reports the SQL three-valued truth of a boolean-ish value; NULL is
// not true.
func (v Value) Truth() bool { return v.Kind == KindBool && v.I != 0 }

// Key returns a map-key string uniquely encoding the value, used by hash
// indexes and GROUP BY.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "\x00"
	case KindInt, KindBool:
		return "i" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		return "f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return "s" + v.S
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.S
	}
}

// Compare orders two non-null values; mixed numeric kinds compare
// numerically. It returns -1, 0, or 1; ok is false for incomparable kinds.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	if aNum && bNum {
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	}
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.S, b.S), true
	}
	return 0, false
}

// Row is one tuple.
type Row []Value

// Table stores rows with the column layout of its schema definition.
type Table struct {
	Def  *schema.Table
	Rows []Row
	// colIdx maps lower-cased column names to positions.
	colIdx map[string]int
	// indexes maps lower-cased column names to value-key → row positions.
	indexes map[string]map[string][]int
}

// ColIndex returns the position of the named column.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.colIdx[strings.ToLower(name)]
	return i, ok
}

// Insert appends a row. The row length must match the column count.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.Def.Columns) {
		return fmt.Errorf("storage: table %s: row has %d values, want %d", t.Def.Name, len(r), len(t.Def.Columns))
	}
	pos := len(t.Rows)
	t.Rows = append(t.Rows, r)
	for col, idx := range t.indexes {
		ci := t.colIdx[col]
		k := r[ci].Key()
		idx[k] = append(idx[k], pos)
	}
	return nil
}

// BuildIndex creates (or rebuilds) a hash index over the column.
func (t *Table) BuildIndex(column string) error {
	col := strings.ToLower(column)
	ci, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("storage: table %s has no column %s", t.Def.Name, column)
	}
	idx := make(map[string][]int, len(t.Rows))
	for pos, r := range t.Rows {
		k := r[ci].Key()
		idx[k] = append(idx[k], pos)
	}
	t.indexes[col] = idx
	return nil
}

// Lookup returns the positions of rows whose column equals v, using the hash
// index if one exists. ok is false when no index covers the column.
func (t *Table) Lookup(column string, v Value) (rows []int, ok bool) {
	idx, has := t.indexes[strings.ToLower(column)]
	if !has {
		return nil, false
	}
	return idx[v.Key()], true
}

// HasIndex reports whether the column has a hash index.
func (t *Table) HasIndex(column string) bool {
	_, ok := t.indexes[strings.ToLower(column)]
	return ok
}

// DB is a set of tables built from a schema catalog.
type DB struct {
	Catalog *schema.Catalog
	tables  map[string]*Table
}

// NewDB creates an empty database with one table per catalog entry and a
// hash index on every key column.
func NewDB(cat *schema.Catalog) *DB {
	db := &DB{Catalog: cat, tables: map[string]*Table{}}
	for _, name := range cat.TableNames() {
		def, _ := cat.Table(name)
		t := &Table{Def: def, colIdx: map[string]int{}, indexes: map[string]map[string][]int{}}
		for i, c := range def.Columns {
			t.colIdx[strings.ToLower(c.Name)] = i
		}
		for _, c := range def.Columns {
			if c.Key {
				// Empty table: index is trivially buildable.
				_ = t.BuildIndex(c.Name)
			}
		}
		db.tables[strings.ToLower(name)] = t
	}
	return db
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert appends a row to the named table.
func (db *DB) Insert(table string, r Row) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("storage: no table %s", table)
	}
	return t.Insert(r)
}
