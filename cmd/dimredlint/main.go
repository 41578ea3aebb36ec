// Command dimredlint is the repository's multichecker: it runs the
// domain-invariant analyzers of internal/lint (wallclock, the purity,
// snapalias and clonecheck passes built on the module call graph, and
// the unknowndirective hygiene pass) over the module, and exits non-zero
// when any finding survives //dimred:allow suppression.
//
// Usage:
//
//	dimredlint [-C dir] [-only a,b] [-list] [-audit] [packages...]
//
// Packages default to ./... relative to the current directory. Findings
// print one per line as file:line:col: message [analyzer], the form the
// CI problem matcher parses. -audit lists every reasoned //dimred:allow
// suppression in the tree with its mandatory reason instead of running
// the analyzers. Exit status: 0 clean, 1 findings, 2 usage or load
// failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dimred/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimredlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the bundled analyzers and exit")
	audit := fs.Bool("audit", false, "list every //dimred:allow suppression with its reason and exit")
	dir := fs.String("C", ".", "directory to run in (the module to analyze)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "dimredlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	units, err := lint.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "dimredlint: %v\n", err)
		return 2
	}
	cwd, _ := os.Getwd()
	relName := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				return rel
			}
		}
		return name
	}

	if *audit {
		allows := lint.AuditEscapes(units)
		for _, al := range allows {
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", relName(al.Pos.Filename), al.Pos.Line, al.Analyzer, al.Reason)
		}
		fmt.Fprintf(stderr, "dimredlint: %d suppression(s)\n", len(allows))
		return 0
	}

	diags := lint.Run(units, analyzers)
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dimredlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
