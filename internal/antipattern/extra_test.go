package antipattern

import (
	"testing"
)

func detectExtra(t *testing.T, stmts ...string) []Instance {
	t.Helper()
	pl, sess := buildLog(t, "u", stmts...)
	reg := NewRegistry(ExtraRules(demoCatalog())...)
	return reg.Detect(pl, sess)
}

func TestImplicitColumnsDetection(t *testing.T) {
	instances := detectExtra(t, "SELECT * FROM Employee WHERE empId = 8")
	if kindsOf(instances)[ImplicitColumns] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
	if !instances[0].Solvable {
		t.Error("with a catalog the star is solvable")
	}
	if n := kindsOf(detectExtra(t, "SELECT * AS e FROM Employee WHERE empId = 8"))[ImplicitColumns]; n != 1 {
		t.Error("aliased star not flagged")
	}
}

func TestImplicitColumnsSkipsQualifiedStarAndLists(t *testing.T) {
	if n := kindsOf(detectExtra(t, "SELECT E.* FROM Employee E"))[ImplicitColumns]; n != 0 {
		t.Error("qualified star flagged")
	}
	if n := kindsOf(detectExtra(t, "SELECT name FROM Employee"))[ImplicitColumns]; n != 0 {
		t.Error("explicit list flagged")
	}
	if n := kindsOf(detectExtra(t, "SELECT * FROM Employee E JOIN EmployeeInfo EI ON E.empId = EI.empId"))[ImplicitColumns]; n != 0 {
		t.Error("join flagged (only single-table selects are expandable)")
	}
}

func TestImplicitColumnsSkipsUnknownTables(t *testing.T) {
	if n := kindsOf(detectExtra(t, "SELECT * FROM mystery"))[ImplicitColumns]; n != 0 {
		t.Error("unknown table flagged although the solver could not expand it")
	}
}

func TestLeadingWildcardDetection(t *testing.T) {
	instances := detectExtra(t, "SELECT name FROM Employee WHERE name LIKE '%son'")
	if kindsOf(instances)[LeadingWildcard] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
	if instances[0].Solvable {
		t.Error("leading wildcard is detect-only")
	}
	instances = detectExtra(t, "SELECT name FROM Employee WHERE name LIKE '_x%'")
	if kindsOf(instances)[LeadingWildcard] != 1 {
		t.Error("underscore prefix not flagged")
	}
}

func TestTrailingWildcardIsFine(t *testing.T) {
	instances := detectExtra(t, "SELECT name FROM Employee WHERE name LIKE 'son%'")
	if kindsOf(instances)[LeadingWildcard] != 0 {
		t.Fatalf("prefix search flagged: %+v", instances)
	}
}

func TestLeadingWildcardInsideConjunction(t *testing.T) {
	instances := detectExtra(t, "SELECT name FROM Employee WHERE empId = 3 AND name LIKE '%x%'")
	if kindsOf(instances)[LeadingWildcard] != 1 {
		t.Fatalf("nested LIKE missed: %+v", instances)
	}
}
