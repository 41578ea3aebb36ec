package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestE01MatchesRecordedOutput pins E01 — the Appendix A star schema as
// relstore renders it — byte for byte against its block of the recorded
// output, docs/experiments-output.txt (the header line through the blank
// line that ends the block).
func TestE01MatchesRecordedOutput(t *testing.T) {
	recorded, err := os.ReadFile("../../docs/experiments-output.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(recorded), "\n==== E02:")
	if !ok {
		t.Fatal("docs/experiments-output.txt has no E02 block after E01")
	}
	want += "\n"
	e01 := experiments[0]
	if e01.id != "E01" {
		t.Fatalf("experiments[0] is %s, want E01", e01.id)
	}
	var buf bytes.Buffer
	if err := runOne(&buf, e01); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("E01 output differs from docs/experiments-output.txt:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestAllExperimentsRun executes every experiment against a buffer and
// asserts each produces its key result line — an integration test over
// the whole stack, mirroring what `go run ./cmd/experiments` prints.
func TestAllExperimentsRun(t *testing.T) {
	keyOutput := map[string][]string{
		"E01": {"Click Fact", "Time Dimension", "1999/12/4"},
		"E02": {"a1 <=_V a2: true"},
		"E03": {"Cell(fact_1) = (1999Q4, cnn.com)"},
		"E04": {"rejected at compile time", "noncrossing violated"},
		"E05": {"violates Growing", "{a1, a2} is Growing"},
		"E06": {"fact_03: 1999Q4, amazon.com", "fact_45: 2000/1, cnn.com"},
		"E07": {"conservative=false weight=0.33", "conservative=true weight=1.00"},
		"E08": {"fact_12: cnn.com | Number_of=2 Dwell_time=2489"},
		"E09": {"fact_03: 1999Q4, amazon.com", "Group_high((1999, amazon.com)) = []"},
		"E10": {"rejected", "delete(a7) after insert(a8): ok"},
		"E11": {"{b1, b2, b3} Growing: ok", "without b3 the check fails"},
		"E12": {"parents={K0,K1}", "[bottom]"},
		"E13": {"2000Q1, .com", "Dwell_time=1255"},
		"E14": {"1999Q4, .com", "2000/5, .com"},
		"E15": {"MATCH"},
		"E16": {"DNF:", "ok"},
		"S1":  {"fact share of storage"},
		"S2":  {"spec-reduction", "no-reduction"},
		"S3":  {"parallel goroutines"},
		"S4":  {"facts/sec"},
		"S5":  {"5/5 time points agree"},
		"S6":  {"metrics snapshot", "rows folded", "cubes pruned"},
	}
	for _, e := range experiments {
		e := e
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.run(&buf); err != nil {
				t.Fatalf("%s failed: %v", e.id, err)
			}
			out := buf.String()
			for _, key := range keyOutput[e.id] {
				if !strings.Contains(out, key) {
					t.Errorf("%s output missing %q:\n%s", e.id, key, out)
				}
			}
		})
	}
}
