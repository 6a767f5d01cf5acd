package lint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/huffduff/huffduff/internal/lint"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt golden files")

// sharedLoader memoizes one loader across subtests so the standard library
// sources parse once.
var (
	loaderOnce sync.Once
	loaderInst *lint.Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderInst, loaderErr = lint.NewLoader(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderInst
}

// loadCase loads one testdata package under an explicit import path so the
// path-scoped analyzers treat it as the package they guard.
func loadCase(t *testing.T, dir, importPath string) *lint.Package {
	t.Helper()
	pkg, err := sharedLoader(t).LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("testdata package %s has type errors: %v", dir, pkg.TypeErrors)
	}
	return pkg
}

// render formats diagnostics with basenamed files, the shape the golden
// files store.
func render(diags []lint.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		d.File = filepath.Base(d.File)
		fmt.Fprintln(&sb, d.String())
	}
	return sb.String()
}

// TestGolden runs each analyzer against its testdata package and compares
// the diagnostics against the committed expect.txt. Every analyzer must
// demonstrate at least one caught violation.
func TestGolden(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
		analyzer   string
		wantSome   bool
	}{
		{"hosttime", "test/internal/accel", "hosttime", true},
		{"globalrand", "test/internal/chaos", "globalrand", true},
		{"floateq", "test/internal/tensor", "floateq", true},
		{"wrapcheck", "test/internal/huffduff", "wrapcheck", true},
		{"maporder", "test/pkg/export", "maporder", true},
		{"ignore", "test/pkg/ignore", "globalrand", true},
		// crashsafe's dirty package is loaded under an import path inside
		// its scope, and its clean twin (same shapes, done right) must
		// produce an empty golden.
		{"crashsafe", "test2/internal/store", "crashsafe", true},
		{"crashsafe_clean", "test3/internal/store", "crashsafe", false},
		{"staleignore", "test/pkg/staleignore", "globalrand", true},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			pkg := loadCase(t, c.dir, c.importPath)
			a, err := lint.ByName(c.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			got := render(lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a}))
			golden := filepath.Join("testdata", "src", c.dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if c.wantSome && strings.TrimSpace(got) == "" {
				t.Errorf("expected at least one caught violation, got none")
			}
			if !c.wantSome && got != "" {
				t.Errorf("clean twin must stay silent, got:\n%s", got)
			}
		})
	}
}

// TestPathScoping checks that a path-restricted analyzer stays silent on a
// package outside its scope: the hosttime testdata, loaded under a
// non-device import path, must produce no findings.
func TestPathScoping(t *testing.T) {
	pkg := loadCase(t, "hosttime", "test/pkg/notadevice")
	diags := lint.RunAnalyzers([]*lint.Package{pkg}, lint.All())
	for _, d := range diags {
		if d.Analyzer == "hosttime" {
			t.Errorf("hosttime fired outside its package scope: %s", d)
		}
	}
}

// TestSuppressionScope checks a directive covers only its own and the next
// line: the wrong-analyzer and malformed directives in the ignore testdata
// must leave their findings standing (already pinned by the golden file),
// while well-formed ones silence theirs.
func TestSuppressionScope(t *testing.T) {
	pkg := loadCase(t, "ignore", "test/pkg/ignore2")
	a, err := lint.ByName("globalrand")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	var kinds []string
	for _, d := range diags {
		kinds = append(kinds, d.Analyzer)
	}
	// Two surviving globalrand findings (wrong analyzer named, malformed
	// directive) plus the malformed-directive report itself.
	wantGlobal, wantIgnore := 2, 1
	var nGlobal, nIgnore int
	for _, k := range kinds {
		switch k {
		case "globalrand":
			nGlobal++
		case "ignore":
			nIgnore++
		}
	}
	if nGlobal != wantGlobal || nIgnore != wantIgnore {
		t.Errorf("got %d globalrand + %d ignore diagnostics (want %d + %d): %v",
			nGlobal, nIgnore, wantGlobal, wantIgnore, diags)
	}
}

// TestByName covers registry lookups.
func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		got, err := lint.ByName(a.Name)
		if err != nil || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, err)
		}
	}
	if _, err := lint.ByName("nosuch"); err == nil {
		t.Error("ByName(nosuch) succeeded")
	}
}

// BenchmarkHuffvet measures one full-module analysis pass — load,
// type-check against the source importer, run every analyzer — the cost CI
// pays per huffvet invocation. EXPERIMENTS.md records the baseline; keep it
// under ~10s.
func BenchmarkHuffvet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := lint.NewLoader(filepath.Join("..", ".."))
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		if diags := lint.RunAnalyzers(pkgs, lint.All()); len(diags) != 0 {
			b.Fatalf("module not clean: %v", diags)
		}
	}
}
