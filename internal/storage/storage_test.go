package storage

import (
	"testing"
	"testing/quick"

	"sqlclean/internal/schema"
)

func demoDB() *DB {
	cat := schema.New()
	cat.AddTable("t",
		schema.Column{Name: "id", Type: "int", Key: true},
		schema.Column{Name: "name", Type: "string"},
		schema.Column{Name: "score", Type: "float"},
	)
	return NewDB(cat)
}

func TestValueConstructorsAndPredicates(t *testing.T) {
	if !Null.IsNull() || Int(1).IsNull() {
		t.Error("IsNull misbehaves")
	}
	if !Bool(true).Truth() || Bool(false).Truth() || Int(1).Truth() {
		t.Error("Truth misbehaves")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("int AsFloat")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("float AsFloat")
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("string AsFloat must fail")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null, "42": Int(42), "x": Str("x"), "true": Bool(true),
		"false": Bool(false), "2.5": Float(2.5),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("got %q want %q", v.String(), want)
		}
	}
}

func TestValueKeyDistinguishesKindsAndValues(t *testing.T) {
	vals := []Value{Null, Int(1), Int(2), Float(1.5), Str("1"), Str(""), Bool(true)}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, ok := seen[k]; ok && prev != v {
			// Int and Bool intentionally share encoding only when equal.
			if !(v.Kind == KindBool && prev.Kind == KindInt && prev.I == v.I) &&
				!(v.Kind == KindInt && prev.Kind == KindBool && prev.I == v.I) {
				t.Errorf("key collision: %v vs %v", prev, v)
			}
		}
		seen[k] = v
	}
}

func TestCompare(t *testing.T) {
	if c, ok := Compare(Int(1), Int(2)); !ok || c != -1 {
		t.Error("int compare")
	}
	if c, ok := Compare(Int(2), Float(1.5)); !ok || c != 1 {
		t.Error("mixed numeric compare")
	}
	if c, ok := Compare(Str("a"), Str("b")); !ok || c != -1 {
		t.Error("string compare")
	}
	if c, ok := Compare(Str("a"), Str("a")); !ok || c != 0 {
		t.Error("string equal")
	}
	if _, ok := Compare(Null, Int(1)); ok {
		t.Error("null compare must fail")
	}
	if _, ok := Compare(Str("a"), Int(1)); ok {
		t.Error("string/int compare must fail")
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Compare(Int(a), Int(b))
		c2, ok2 := Compare(Int(b), Int(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertAndLookup(t *testing.T) {
	db := demoDB()
	tbl, _ := db.Table("t")
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(Row{Int(i % 3), Str("n"), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	rows, ok := tbl.Lookup("id", Int(1))
	if !ok {
		t.Fatal("key column must be indexed by NewDB")
	}
	if len(rows) != 3 { // i%3 == 1 for i = 1, 4, 7
		t.Fatalf("lookup: %v", rows)
	}
	if _, ok := tbl.Lookup("name", Str("n")); ok {
		t.Error("unindexed column lookup must report no index")
	}
	if !tbl.HasIndex("ID") || tbl.HasIndex("name") {
		t.Error("HasIndex wrong")
	}
}

func TestIndexMaintainedAcrossInserts(t *testing.T) {
	db := demoDB()
	tbl, _ := db.Table("t")
	_ = tbl.Insert(Row{Int(7), Str("a"), Float(0)})
	rows, _ := tbl.Lookup("id", Int(7))
	if len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("lookup after insert: %v", rows)
	}
	_ = tbl.Insert(Row{Int(7), Str("b"), Float(0)})
	rows, _ = tbl.Lookup("id", Int(7))
	if len(rows) != 2 {
		t.Fatalf("index missed second insert: %v", rows)
	}
}

func TestBuildIndexOnPopulatedTable(t *testing.T) {
	db := demoDB()
	tbl, _ := db.Table("t")
	_ = tbl.Insert(Row{Int(1), Str("x"), Float(0)})
	_ = tbl.Insert(Row{Int(2), Str("x"), Float(0)})
	if err := tbl.BuildIndex("name"); err != nil {
		t.Fatal(err)
	}
	rows, ok := tbl.Lookup("name", Str("x"))
	if !ok || len(rows) != 2 {
		t.Fatalf("lookup: %v ok=%v", rows, ok)
	}
	if err := tbl.BuildIndex("ghost"); err == nil {
		t.Error("indexing unknown column must fail")
	}
}

func TestInsertArityChecked(t *testing.T) {
	db := demoDB()
	if err := db.Insert("t", Row{Int(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := db.Insert("ghost", Row{}); err == nil {
		t.Error("unknown table accepted")
	}
	if err := db.Insert("t", Row{Int(1), Str("a"), Float(2)}); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
}

func TestColIndex(t *testing.T) {
	db := demoDB()
	tbl, _ := db.Table("t")
	if i, ok := tbl.ColIndex("SCORE"); !ok || i != 2 {
		t.Errorf("ColIndex: %d ok=%v", i, ok)
	}
	if _, ok := tbl.ColIndex("nope"); ok {
		t.Error("unknown column found")
	}
}

func TestTableNamesSorted(t *testing.T) {
	db := NewDB(schema.SkyServer())
	names := db.TableNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("unsorted: %v", names)
		}
	}
}
