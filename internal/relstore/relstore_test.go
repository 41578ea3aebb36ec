package relstore

import (
	"slices"
	"strings"
	"testing"

	"dimred/internal/dims"
)

func TestBuildStarPaperTable2(t *testing.T) {
	p := dims.MustPaperMO()
	star, err := BuildStar(p.MO)
	if err != nil {
		t.Fatal(err)
	}
	if len(star.Dims) != 2 {
		t.Fatalf("dimension tables = %d", len(star.Dims))
	}
	if star.Fact.Rows() != 7 {
		t.Errorf("fact rows = %d", star.Fact.Rows())
	}
	// The URL dimension table exposes Table 2's denormalized columns.
	urlTab := star.Dims[1]
	urlCol := slices.Index(urlTab.Columns, "url")
	domCol := slices.Index(urlTab.Columns, "domain")
	grpCol := slices.Index(urlTab.Columns, "domain_grp")
	if urlCol < 0 || domCol < 0 || grpCol < 0 {
		t.Fatalf("URL dimension columns missing: %v", urlTab.Columns)
	}
	// Find www.cnn.com/health's row: domain cnn.com, group .com.
	found := false
	for _, row := range urlTab.Rows {
		if row[urlCol] == "http://www.cnn.com/health" {
			found = true
			if row[domCol] != "cnn.com" || row[grpCol] != ".com" {
				t.Errorf("denormalized roll-up wrong: %v", row)
			}
		}
	}
	if !found {
		t.Error("health url missing")
	}
	// Appendix A render includes every table header.
	all := star.FormatAll()
	if !strings.Contains(all, "Click Fact") || !strings.Contains(all, "Time Dimension") {
		t.Errorf("FormatAll missing tables:\n%s", all)
	}
}
