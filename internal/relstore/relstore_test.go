package relstore

import (
	"strings"
	"testing"

	"dimred/internal/dims"
)

func TestTableBasics(t *testing.T) {
	tab, err := NewTable("T", []Column{
		{Name: "id", Kind: KindInt64},
		{Name: "name", Kind: KindString},
		{Name: "v", Kind: KindFloat64},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(int64(1), "a", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(int64(2), "b", 2.5); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 {
		t.Fatal("rows")
	}
	r, ok := tab.Lookup(2)
	if !ok || tab.Str(r, 1) != "b" || tab.Float(r, 2) != 2.5 || tab.Int(r, 0) != 2 {
		t.Error("lookup/read wrong")
	}
	if _, ok := tab.Lookup(99); ok {
		t.Error("phantom lookup")
	}
	// Type and arity errors.
	if err := tab.Insert(int64(3), "c"); err == nil {
		t.Error("short row accepted")
	}
	if err := tab.Insert("x", "c", 1.0); err == nil {
		t.Error("wrong pk type accepted")
	}
	if err := tab.Insert(int64(4), 5, 1.0); err == nil {
		t.Error("wrong string type accepted")
	}
	if err := tab.Insert(int64(1), "dup", 0.0); err == nil {
		t.Error("duplicate pk accepted")
	}
	if tab.Rows() != 2 {
		t.Error("failed inserts changed row count")
	}
	// Cell accessor covers all kinds.
	if tab.Cell(0, 0) != int64(1) || tab.Cell(0, 1) != "a" || tab.Cell(0, 2) != 1.5 {
		t.Error("Cell wrong")
	}
	if !strings.Contains(tab.Format(), "id | name | v") {
		t.Error("Format header missing")
	}
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable("T", nil, ""); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewTable("T", []Column{{Name: "a", Kind: KindString}, {Name: "a", Kind: KindString}}, ""); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewTable("T", []Column{{Name: "a", Kind: KindString}}, "b"); err == nil {
		t.Error("missing pk column accepted")
	}
	if _, err := NewTable("T", []Column{{Name: "a", Kind: KindString}}, "a"); err == nil {
		t.Error("non-int pk accepted")
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	tab, _ := NewTable("A", []Column{{Name: "x", Kind: KindInt64}}, "")
	if err := db.Add(tab); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(tab); err == nil {
		t.Error("duplicate table accepted")
	}
	if got, ok := db.Table("A"); !ok || got != tab {
		t.Error("Table lookup")
	}
	if len(db.Tables()) != 1 {
		t.Error("Tables")
	}
}

func TestBuildStarPaperTable2(t *testing.T) {
	p := dims.MustPaperMO()
	star, err := BuildStar(p.MO)
	if err != nil {
		t.Fatal(err)
	}
	// 2 dimension tables + 1 fact table.
	if len(star.DB.Tables()) != 3 {
		t.Fatalf("tables = %d", len(star.DB.Tables()))
	}
	fact := star.Fact
	if fact.Rows() != 7 {
		t.Errorf("fact rows = %d", fact.Rows())
	}
	// The URL dimension table exposes Table 2's denormalized columns.
	urlTab := star.Dims[1]
	if urlTab.ColumnIndex("url") < 0 || urlTab.ColumnIndex("domain") < 0 || urlTab.ColumnIndex("domain_grp") < 0 {
		t.Error("URL dimension columns missing")
	}
	// Find www.cnn.com/health's row: domain cnn.com, group .com.
	found := false
	urlCol := urlTab.ColumnIndex("url")
	domCol := urlTab.ColumnIndex("domain")
	grpCol := urlTab.ColumnIndex("domain_grp")
	urlTab.Scan(func(r int) bool {
		if urlTab.Str(r, urlCol) == "http://www.cnn.com/health" {
			found = true
			if urlTab.Str(r, domCol) != "cnn.com" || urlTab.Str(r, grpCol) != ".com" {
				t.Error("denormalized roll-up wrong")
			}
		}
		return true
	})
	if !found {
		t.Error("health url missing")
	}
	// Appendix A render includes the fact table header.
	all := star.FormatAll()
	if !strings.Contains(all, "Click Fact") || !strings.Contains(all, "Time Dimension") {
		t.Errorf("FormatAll missing tables:\n%s", all)
	}
}

func TestSumByLevel(t *testing.T) {
	p := dims.MustPaperMO()
	star, err := BuildStar(p.MO)
	if err != nil {
		t.Fatal(err)
	}
	// SELECT domain_grp, SUM(...) GROUP BY domain_grp.
	rows, err := star.SumByLevel([]string{"URL.domain_grp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	// .com dwell total = 677+2335+154+12+654+301 = 4133; .edu = 32.
	for _, r := range rows {
		switch r.Keys[0] {
		case ".com":
			if r.Measures[1] != 4133 {
				t.Errorf(".com dwell = %v", r.Measures[1])
			}
		case ".edu":
			if r.Measures[1] != 32 {
				t.Errorf(".edu dwell = %v", r.Measures[1])
			}
		default:
			t.Errorf("unexpected group %q", r.Keys[0])
		}
	}
	// Two-level group-by with a filter on the joined dimension row.
	grpCol := star.Dims[1].ColumnIndex("domain_grp")
	rows, err = star.SumByLevel([]string{"Time.month", "URL.domain"}, func(dimRows []int) bool {
		return star.Dims[1].Str(dimRows[1], grpCol) == ".com"
	})
	if err != nil {
		t.Fatal(err)
	}
	// Groups: (1999/11, amazon), (1999/12, amazon), (1999/12, cnn),
	// (2000/1, cnn).
	if len(rows) != 4 {
		for _, r := range rows {
			t.Logf("row %v %v", r.Keys, r.Measures)
		}
		t.Errorf("groups = %d, want 4", len(rows))
	}
	// Errors.
	if _, err := star.SumByLevel([]string{"nodot"}, nil); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := star.SumByLevel([]string{"Nope.month"}, nil); err == nil {
		t.Error("unknown dimension accepted")
	}
	if _, err := star.SumByLevel([]string{"Time.nope"}, nil); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestStarOnReducedGranularities(t *testing.T) {
	// Facts at mixed granularities: dimension rows with "" at
	// unavailable levels are skipped by SumByLevel (strict approach).
	p := dims.MustPaperMO()
	star, err := BuildStar(p.MO)
	if err != nil {
		t.Fatal(err)
	}
	// Grouping by url works for the bottom-granularity paper MO: 4 urls.
	rows, err := star.SumByLevel([]string{"URL.url"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("url groups = %d", len(rows))
	}
}
