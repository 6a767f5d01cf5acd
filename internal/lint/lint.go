// Package lint is a from-scratch static-analysis engine for this module,
// built on the standard library's go/parser and go/types only. It exists to
// turn the simulation's correctness invariants — device time comes from the
// cycle model, results are bit-for-bit deterministic, errors stay
// classifiable, durable writes reach disk before they are published — from
// conventions into machine-checked rules that run in CI on every change
// (see cmd/huffvet).
//
// The engine loads every package of the module (load.go), type-checks it
// against an offline source importer, and runs a registry of project-
// specific analyzers over the typed syntax trees (registry.go): hosttime,
// maporder, globalrand, floateq, wrapcheck and crashsafe. Each keeps an
// invariant that neither the compiler, go vet nor the race-instrumented
// tests would catch; every analyzer walks syntax, crashsafe path by path
// (crashsafe.go). Diagnostics carry exact file/line/column positions and
// can be suppressed, one site at a time, with an explanatory directive:
//
//	//lint:ignore <analyzer> <reason>
//
// placed either at the end of the offending line or on the line directly
// above it. The reason is mandatory: a suppression without one is itself a
// diagnostic, so every tolerated violation documents why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at an exact source position.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// File is the file path as the loader saw it.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message states the violated invariant and the expected fix.
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional path:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named, self-contained invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Paths, when non-empty, restricts the analyzer to packages whose
	// import path ends in one of these module-relative suffixes (e.g.
	// "internal/accel"). An empty list applies the analyzer everywhere.
	Paths []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// applies reports whether the analyzer covers the given import path.
func (a *Analyzer) applies(pkgPath string) bool {
	if len(a.Paths) == 0 {
		return true
	}
	for _, p := range a.Paths {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless a //lint:ignore directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers []string // analyzer names, comma-separated in the source
	reason    string
	pos       token.Position
	// used records, per analyzer name, whether the directive actually
	// silenced a finding during the run. A directive naming an analyzer
	// that ran but never fired at the site is stale, and reported.
	used map[string]bool
}

// covers reports whether the directive silences the named analyzer.
func (d *ignoreDirective) covers(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer || a == "*" {
			return true
		}
	}
	return false
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//lint:ignore"

// parseDirectives extracts every //lint:ignore directive of a file, keyed by
// the line the directive covers: its own line (trailing-comment form) and
// the line below it (preceding-comment form). The flat list holds each
// directive once (the line map double-keys them) for staleness reporting.
// Malformed directives — no analyzer name, or no reason — are returned
// separately so the engine can report them: an unexplained suppression is
// itself a violation.
func parseDirectives(fset *token.FileSet, f *ast.File) (byLine map[string][]*ignoreDirective, all []*ignoreDirective, malformed []Diagnostic) {
	byLine = map[string][]*ignoreDirective{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				malformed = append(malformed, Diagnostic{
					Analyzer: "ignore",
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  "malformed directive: want //lint:ignore <analyzer> <reason>",
				})
				continue
			}
			d := &ignoreDirective{
				analyzers: strings.Split(fields[0], ","),
				reason:    strings.Join(fields[1:], " "),
				pos:       pos,
				used:      map[string]bool{},
			}
			all = append(all, d)
			for _, line := range []int{pos.Line, pos.Line + 1} {
				key := lineKey(pos.Filename, line)
				byLine[key] = append(byLine[key], d)
			}
		}
	}
	return byLine, all, malformed
}

// lineKey keys the suppression map by file and line.
func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// RunAnalyzers applies every applicable analyzer to every package and
// returns the surviving diagnostics sorted by file, line, and column.
// Malformed suppression directives are reported alongside analyzer
// findings, as are stale ones: a directive naming an analyzer that ran over
// its package but silenced nothing documents a violation that no longer
// exists, and must be pruned so suppressions stay an accurate audit trail.
// A directive naming no registered analyzer can never silence anything; it
// is reported whichever analyzers run, so a misspelt or retired name cannot
// linger.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, pkg := range pkgs {
		diags = append(diags, pkg.malformed...)
		if pkg.Types == nil {
			continue // nothing parsed; the driver reports pkg.TypeErrors
		}
		for _, a := range analyzers {
			if !a.applies(pkg.Path) {
				continue
			}
			ran[a.Name] = true
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	for _, pkg := range pkgs {
		for _, d := range pkg.directives {
			for _, name := range d.analyzers {
				var msg string
				if _, err := ByName(name); err != nil && name != "*" {
					msg = "unknown analyzer " + name
				} else if ran[name] && !d.used[name] {
					msg = fmt.Sprintf("stale directive: %s does not fire here; remove the suppression", name)
				} else {
					continue
				}
				diags = append(diags, Diagnostic{
					Analyzer: "ignore",
					File:     d.pos.Filename,
					Line:     d.pos.Line,
					Col:      d.pos.Column,
					Message:  msg,
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
