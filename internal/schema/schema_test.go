package schema

import (
	"strings"
	"testing"
)

func demo() *Catalog {
	c := New()
	c.AddTable("Employee",
		Column{Name: "empId", Type: "int", Key: true},
		Column{Name: "name", Type: "string"},
	)
	c.AddTable("EmployeeInfo",
		Column{Name: "empId", Type: "int", Key: true},
		Column{Name: "address", Type: "string"},
	)
	c.AddTable("Orders",
		Column{Name: "orderId", Type: "int", Key: true},
		Column{Name: "empId", Type: "int"},
	)
	return c
}

func TestTableLookupIsCaseInsensitive(t *testing.T) {
	c := demo()
	for _, name := range []string{"employee", "EMPLOYEE", "Employee"} {
		if _, ok := c.Table(name); !ok {
			t.Errorf("lookup %q failed", name)
		}
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("unknown table found")
	}
}

func TestColumnLookup(t *testing.T) {
	c := demo()
	tbl, _ := c.Table("employee")
	col, ok := tbl.Column("EMPID")
	if !ok || !col.Key {
		t.Errorf("column: %+v ok=%v", col, ok)
	}
	if _, ok := tbl.Column("ghost"); ok {
		t.Error("unknown column found")
	}
}

func TestIsKey(t *testing.T) {
	c := demo()
	if !c.IsKey("employee", "empid") {
		t.Error("empid is a key of employee")
	}
	if c.IsKey("orders", "empid") {
		t.Error("empid is not a key of orders")
	}
	if c.IsKey("ghost", "empid") {
		t.Error("unknown table cannot have keys")
	}
}

func TestIsKeyInAny(t *testing.T) {
	c := demo()
	if !c.IsKeyInAny("empid", []string{"orders", "employee"}) {
		t.Error("empid is a key in employee")
	}
	if c.IsKeyInAny("empid", []string{"orders"}) {
		t.Error("empid is not a key in orders alone")
	}
	// Empty table list falls back to whole-catalog search.
	if !c.IsKeyInAny("orderid", nil) {
		t.Error("orderid is a key somewhere")
	}
	if c.IsKeyInAny("address", nil) {
		t.Error("address is never a key")
	}
}

func TestSharedKey(t *testing.T) {
	c := demo()
	k, ok := c.SharedKey([]string{"employee", "employeeinfo"})
	if !ok || k != "empid" {
		t.Errorf("got %q ok=%v", k, ok)
	}
	// orders has empid as a column but employee's keys must exist in all.
	k, ok = c.SharedKey([]string{"employee", "orders"})
	if !ok || k != "empid" {
		t.Errorf("employee+orders: got %q ok=%v", k, ok)
	}
	if _, ok := c.SharedKey([]string{"orders", "employeeinfo"}); ok {
		// orders' key is orderid, not present in employeeinfo.
		t.Error("no shared key expected")
	}
	if _, ok := c.SharedKey(nil); ok {
		t.Error("empty table list has no shared key")
	}
	if _, ok := c.SharedKey([]string{"ghost", "employee"}); ok {
		t.Error("unknown table has no shared key")
	}
}

func TestTableNamesSorted(t *testing.T) {
	c := demo()
	names := c.TableNames()
	if len(names) != 3 {
		t.Fatalf("names: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Errorf("not sorted: %v", names)
		}
	}
}

func TestValidate(t *testing.T) {
	c := demo()
	if err := c.Validate(); err != nil {
		t.Errorf("valid catalog rejected: %v", err)
	}
	c.AddTable("broken")
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "no columns") {
		t.Errorf("want no-columns error, got %v", err)
	}
	c2 := New()
	c2.AddTable("dup", Column{Name: "a"}, Column{Name: "A"})
	if err := c2.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate column") {
		t.Errorf("want duplicate-column error, got %v", err)
	}
}

func TestAddTableReplaces(t *testing.T) {
	c := demo()
	c.AddTable("employee", Column{Name: "only", Type: "int"})
	tbl, _ := c.Table("employee")
	if len(tbl.Columns) != 1 || tbl.Columns[0].Name != "only" {
		t.Errorf("replace failed: %+v", tbl.Columns)
	}
}

func TestSkyServerCatalog(t *testing.T) {
	c := SkyServer()
	if err := c.Validate(); err != nil {
		t.Fatalf("SkyServer catalog invalid: %v", err)
	}
	if !c.IsKey("photoprimary", "objid") {
		t.Error("objid must be a key of photoprimary")
	}
	if !c.IsKey("dbobjects", "name") {
		t.Error("name must be a key of dbobjects")
	}
	k, ok := c.SharedKey([]string{"photoprimary", "photoobjall"})
	if !ok || k != "objid" {
		t.Errorf("shared key: %q ok=%v", k, ok)
	}
	// The paper's HR running example must be covered too.
	if !c.IsKey("employees", "id") || !c.IsKey("employees", "empid") {
		t.Error("employees keys missing")
	}
}
