package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check failures; analyzers still run on what
	// checked, but the driver surfaces these and fails the run.
	TypeErrors []error

	ignores    map[string][]*ignoreDirective
	directives []*ignoreDirective
	malformed  []Diagnostic
}

// suppressed reports whether an //lint:ignore directive covers the analyzer
// at the given position, marking the directive used so unused ones surface
// as stale.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	for _, d := range p.ignores[lineKey(pos.Filename, pos.Line)] {
		if d.covers(analyzer) {
			d.used[analyzer] = true
			return true
		}
	}
	return false
}

// Loader loads and type-checks packages of one module. The standard
// library resolves through the offline source importer (GOROOT source), so
// loading needs no network, no export data, and no dependencies beyond the
// standard library itself.
type Loader struct {
	// ModuleDir is the module root (the directory holding go.mod).
	ModuleDir string
	// ModulePath is the module's declared import path.
	ModulePath string
	Fset       *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader prepares a loader for the module rooted at dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  abs,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Load expands the given package patterns ("./...", "./internal/accel",
// "internal/accel/...") and returns the matching packages, loaded and
// type-checked, sorted by import path. With no patterns it loads the whole
// module.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			dirs[d] = true
		}
	}
	var pkgs []*Package
	for dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// expand resolves one pattern to package directories.
func (l *Loader) expand(pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive, pat = true, rest
	} else if pat == "..." {
		recursive, pat = true, "."
	}
	root := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	if !recursive {
		if !hasGoFiles(root) {
			return nil, fmt.Errorf("lint: no Go files in %s", root)
		}
		return []string{root}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir directly contains at least one buildable
// non-test Go file. A directory holding only _test.go files (or only files
// excluded by build tags) is not a package from the analyzers' point of
// view and is skipped, not failed.
func hasGoFiles(dir string) bool {
	return len(goFilesIn(dir)) > 0
}

// goFilesIn returns the names of dir's buildable non-test Go files: the
// filename filter of buildableGoFile plus the //go:build constraint in each
// file's header, evaluated for this process's platform.
func goFilesIn(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !buildableGoFile(e.Name()) {
			continue
		}
		if !buildConstraintOK(filepath.Join(dir, e.Name())) {
			continue
		}
		names = append(names, e.Name())
	}
	return names
}

// buildableGoFile mirrors the go tool's file selection: .go files that are
// not tests and not ignored by an underscore or dot prefix. The analyzers
// deliberately cover production code only — tests are free to use the host
// clock for deadlines.
func buildableGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, "_") &&
		!strings.HasPrefix(name, ".")
}

// buildConstraintOK evaluates the file's //go:build line, if any, the way
// the go tool would: against the running GOOS/GOARCH, the gc compiler, and
// every go1.N release tag (the module floor is whatever toolchain runs the
// analysis). Files the constraint excludes would not compile into the
// binary under test, so analyzing them would report on dead code.
func buildConstraintOK(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "package ") {
			break // constraints must precede the package clause
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return true // let the parser produce the real error
		}
		return expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
				strings.HasPrefix(tag, "go1.")
		})
	}
	return true
}

// load type-checks the package at the given module-local import path,
// memoized so shared dependencies check once.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	return l.loadDir(dir, path)
}

// LoadDir loads the package in dir under an explicit import path. The test
// harness uses this to check testdata packages under the import paths the
// path-scoped analyzers expect.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.loadDir(dir, path)
}

// loadDir parses and type-checks one directory as one package.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pkg := &Package{
		Path:    path,
		Dir:     dir,
		Fset:    l.Fset,
		ignores: map[string][]*ignoreDirective{},
	}
	for _, name := range goFilesIn(dir) {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			// A syntax error in one file must not abort the module run:
			// record it where the driver reports type-check failures and
			// keep analyzing everything that parses.
			pkg.TypeErrors = append(pkg.TypeErrors, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
		byLine, all, malformed := parseDirectives(l.Fset, f)
		for k, v := range byLine {
			pkg.ignores[k] = v
		}
		pkg.directives = append(pkg.directives, all...)
		pkg.malformed = append(pkg.malformed, malformed...)
	}
	if len(pkg.Files) == 0 {
		if len(pkg.TypeErrors) > 0 {
			// Nothing parsed; report the collected errors instead of
			// pretending the directory is empty.
			l.pkgs[path] = pkg
			return pkg, nil
		}
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check reports the first error as its return value; every error is
	// already collected through the hook above, so the return is redundant.
	pkg.Types, _ = conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	l.pkgs[path] = pkg
	return pkg, nil
}

// moduleImporter resolves module-local imports through the loader and
// everything else through the offline standard-library source importer.
type moduleImporter struct {
	l *Loader
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.l.ModulePath || strings.HasPrefix(path, m.l.ModulePath+"/") {
		pkg, err := m.l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return m.l.std.Import(path)
}
