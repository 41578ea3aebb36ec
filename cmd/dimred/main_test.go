package main

import (
	"os"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errc := make(chan error, 1)
	outc := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		outc <- string(buf)
	}()
	go func() { errc <- fn() }()
	if err := <-errc; err != nil {
		w.Close()
		t.Fatal(err)
	}
	w.Close()
	return <-outc
}

func TestDemoCommand(t *testing.T) {
	out := captureStdout(t, runDemo)
	for _, want := range []string{"fact_03: 1999Q4, amazon.com", "fact_45: 2000/1, cnn.com"} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q", want)
		}
	}
}

func TestCheckCommand(t *testing.T) {
	out := captureStdout(t, func() error { return runCheck(nil) })
	for _, want := range []string{"NonCrossing and Growing: ok", "subcube layout", "[bottom]"} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
	// An unsound action set fails.
	err := runCheck([]string{"-action",
		`aggregate [Time.month, URL.domain] where NOW - 6 months < Time.month and Time.month <= NOW - 2 months`})
	if err == nil {
		t.Error("check accepted an unsound spec")
	}
	// A malformed action fails.
	if err := runCheck([]string{"-action", "garbage"}); err == nil {
		t.Error("check accepted garbage")
	}
}

func TestSimulateCommand(t *testing.T) {
	out := captureStdout(t, func() error {
		return runSimulate([]string{"-days", "60", "-rate", "10", "-at", "2000/6/1", "-at", "2001/6/1"})
	})
	if !strings.Contains(out, "as of 2000/6/1") || !strings.Contains(out, "as of 2001/6/1") {
		t.Errorf("simulate output missing reports:\n%s", out)
	}
	if !strings.Contains(out, "savings") {
		t.Error("simulate output missing savings")
	}
	// Bad date rejected.
	if err := runSimulate([]string{"-days", "5", "-at", "nonsense"}); err == nil {
		t.Error("simulate accepted a bad date")
	}
	if err := runSimulate([]string{"-days", "5", "-start", "nonsense"}); err == nil {
		t.Error("simulate accepted a bad start")
	}
	// A day the clock has already passed is refused, naming the day and
	// the clock: before -start, or after a later -at.
	for _, args := range [][]string{
		{"-days", "5", "-start", "2000/3/1", "-at", "2000/1/1"},
		{"-days", "5", "-start", "2000/1/1", "-at", "2000/3/1", "-at", "2000/2/1"},
	} {
		var err error
		captureStdout(t, func() error { err = runSimulate(args); return nil })
		if err == nil || !strings.Contains(err.Error(), "-at 2000/") || !strings.Contains(err.Error(), "clock 2000/") {
			t.Errorf("simulate %v: err = %v, want the -at day and the clock named", args, err)
		}
	}
}
