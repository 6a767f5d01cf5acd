package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/huffduff/huffduff/internal/lint"
)

// writeModule materializes a synthetic module from path->content pairs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const synthGoMod = "module example.com/synth\n\ngo 1.22\n"

// dirtyModule seeds one violation per analyzer across the scoped package
// layout the analyzers expect.
func dirtyModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": synthGoMod,
		"internal/accel/accel.go": `package accel

import "time"

func Tick() time.Time { return time.Now() }
`,
		"internal/tensor/tensor.go": `package tensor

func Eq(a, b float64) bool { return a == b }
`,
		"internal/chaos/chaos.go": `package chaos

import "math/rand"

func Flip() bool { return rand.Intn(2) == 1 }
`,
		"internal/huffduff/attack.go": `package huffduff

import "strconv"

func Parse(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return n, nil
}
`,
		"internal/store/store.go": `package store

import "os"

func Publish(b []byte) error {
	if err := os.WriteFile("x.new", b, 0o644); err != nil {
		return err
	}
	return os.Rename("x.new", "x")
}
`,
		"internal/export/export.go": `package export

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
	})
}

// TestDirtyModule runs the driver against a module seeding one violation
// per analyzer and checks the exit code and the -json output shape.
func TestDirtyModule(t *testing.T) {
	dir := dirtyModule(t)
	var stdout, stderr bytes.Buffer
	code := run(dir, []string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	seen := map[string]bool{}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Message == "" {
			t.Errorf("diagnostic with empty fields: %+v", d)
		}
		seen[d.Analyzer] = true
	}
	for _, a := range lint.All() {
		if !seen[a.Name] {
			t.Errorf("no %s diagnostic in %s", a.Name, stdout.String())
		}
	}
	if len(diags) != len(lint.All()) {
		t.Errorf("got %d diagnostics, want exactly the %d seeded ones:\n%s", len(diags), len(lint.All()), stdout.String())
	}
}

// TestCleanModule checks the zero-diagnostic exit path.
func TestCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": synthGoMod,
		"internal/accel/accel.go": `package accel

func Cycles() int64 { return 42 }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output: %s", stdout.String())
	}
}

// TestCleanModuleJSON checks -json emits an empty array, not null, when
// there is nothing to report.
func TestCleanModuleJSON(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     synthGoMod,
		"synth.go":   "package synth\n",
		"sub/sub.go": "package sub\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestSuppressedModule checks //lint:ignore flips the exit code to clean.
func TestSuppressedModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": synthGoMod,
		"internal/accel/accel.go": `package accel

import "time"

func Tick() time.Time {
	//lint:ignore hosttime integration test exercises suppression
	return time.Now()
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s", code, stdout.String())
	}
}

// TestBrokenModule checks type-check failures exit 2, distinct from
// diagnostics.
func TestBrokenModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   synthGoMod,
		"synth.go": "package synth\n\nvar X = undefinedIdent\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "undefinedIdent") {
		t.Errorf("stderr does not name the type error: %s", stderr.String())
	}
}

// TestAnalyzerSubset checks -analyzers restricts the run.
func TestAnalyzerSubset(t *testing.T) {
	dir := dirtyModule(t)
	var stdout, stderr bytes.Buffer
	code := run(dir, []string{"-json", "-analyzers", "hosttime", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "hosttime" {
		t.Errorf("subset run returned %v, want the one hosttime finding", diags)
	}

	if code := run(dir, []string{"-analyzers", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown analyzer exit = %d, want 2", code)
	}
}

// TestList checks -list names every registered analyzer.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.TempDir(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

// TestRepoClean runs the driver over this repository itself — the
// acceptance bar CI enforces. Skipped in -short runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis is slow; run without -short")
	}
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("huffvet is not clean on this repo (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
}
