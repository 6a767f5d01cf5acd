// Command huffvet runs this module's project-specific static analyzers
// (internal/lint) over the given packages and reports every violated
// simulation invariant with file/line diagnostics. The six analyzers
// (crashsafe, floateq, globalrand, hosttime, maporder, wrapcheck; -list
// describes each) check what neither the compiler, go vet nor the
// race-instrumented tests would catch.
//
// Usage:
//
//	huffvet [-json] [-list] [-analyzers a,b] [packages]
//
// Packages default to ./... relative to the enclosing module. Exit status
// is 0 when clean, 1 when diagnostics were reported, and 2 when loading or
// type-checking failed.
//
// Diagnostics are suppressed one site at a time with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above it; the reason is mandatory, and
// a directive that suppresses nothing, or names no registered analyzer, is
// itself reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/huffduff/huffduff/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body: analyze patterns relative to the module
// enclosing dir, writing diagnostics to stdout and failures to stderr.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("huffvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *names != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*names, ",") {
			a, err := lint.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "huffvet: %s: %v\n", pkg.Path, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}

	diags := lint.RunAnalyzers(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, rel(root, d))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// rel renders a diagnostic with its file path relative to the module root,
// keeping output stable across checkouts.
func rel(root string, d lint.Diagnostic) string {
	if r, err := filepath.Rel(root, d.File); err == nil && !strings.HasPrefix(r, "..") {
		d.File = r
	}
	return d.String()
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("huffvet: no go.mod above %s", dir)
		}
		abs = parent
	}
}
