package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, root, name, content string) {
	t.Helper()
	path := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func collect() (func(string, ...any), *[]string) {
	var problems []string
	return func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}, &problems
}

func TestFacadeExportLint(t *testing.T) {
	root := t.TempDir()
	write(t, root, "facade.go", `// Package facade is documented.
package facade

// Documented is fine.
func Documented() {}

func Undocumented() {}

type Bare struct{}

// Method docs are checked too.
func (Bare) Fine() {}

func (Bare) Missing() {}

var LooseVar = 1

// Grouped docs cover the block.
const (
	GroupedA = 1
	GroupedB = 2
)
`)
	report, problems := collect()
	if err := lintFacadeExports(root, report); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(*problems, "\n")
	for _, want := range []string{"Undocumented", "type Bare", "Bare.Missing", "LooseVar"} {
		if !strings.Contains(got, want) {
			t.Errorf("lint missed %q in:\n%s", want, got)
		}
	}
	for _, clean := range []string{"Documented", "Fine", "GroupedA", "GroupedB"} {
		for _, p := range *problems {
			if strings.Contains(p, clean) {
				t.Errorf("lint flagged documented identifier: %s", p)
			}
		}
	}
}

func TestPackageDocLint(t *testing.T) {
	root := t.TempDir()
	write(t, root, "good/good.go", "// Package good is documented.\npackage good\n")
	write(t, root, "bad/bad.go", "package bad\n")
	report, problems := collect()
	if err := lintPackageDocs(root, report); err != nil {
		t.Fatal(err)
	}
	if len(*problems) != 1 || !strings.Contains((*problems)[0], "package bad") {
		t.Fatalf("problems = %v, want exactly the undocumented package", *problems)
	}
}

func TestMarkdownLinkLint(t *testing.T) {
	root := t.TempDir()
	write(t, root, "exists.go", "package x\n")
	write(t, root, "README.md", strings.Join([]string{
		"[ok](exists.go)",
		"[ok with anchor](exists.go#l5)",
		"[external](https://example.com/gone)", // never checked
		"[broken](missing.md)",
		"![broken image](img/gone.png)",
	}, "\n"))
	write(t, root, "docs/map.md", "[up](../exists.go) and [gone](nowhere.md)\n")
	report, problems := collect()
	if err := lintMarkdownLinks(root, report); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(*problems, "\n")
	for _, want := range []string{"missing.md", "img/gone.png", "nowhere.md"} {
		if !strings.Contains(got, want) {
			t.Errorf("lint missed broken link %q in:\n%s", want, got)
		}
	}
	if len(*problems) != 3 {
		t.Fatalf("problems = %v, want exactly the 3 broken links", *problems)
	}
}

func TestFacadeRefsLint(t *testing.T) {
	root := t.TempDir()
	write(t, root, "facade.go", `// Package wsd is documented.
package wsd

// Counter is a type.
type Counter interface{}

// NewCounter is a function.
func NewCounter() Counter { return nil }

// Estimate is a method, not a facade identifier.
func (c *Multi) Estimate() {}

// Multi is a type.
type Multi struct{}

// Grouped constants count.
const (
	TrianglePattern = 1
)

// DefaultSeed is a variable.
var DefaultSeed = 1
`)
	write(t, root, "README.md", strings.Join([]string{
		"c, err := wsd.NewCounter() // ok",
		"`wsd.Counter`, wsd.TrianglePattern and wsd.DefaultSeed are fine; so is internal/core/wsd.go",
		"r, err := wsd.RestoreGone(blob)",
		"call wsd.Estimate() on nothing",
	}, "\n"))
	write(t, root, "docs/guide.md", "see `wsd.OldOption`\n")
	// History files name what once existed; they are not checked.
	write(t, root, "ROADMAP.md", "wsd.Removed went away\n")
	write(t, root, "CHANGES.md", "wsd.Removed went away\n")
	report, problems := collect()
	if err := lintFacadeRefs(root, report); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(*problems, "\n")
	for _, want := range []string{"README.md:3: wsd.RestoreGone", "README.md:4: wsd.Estimate", "guide.md:1: wsd.OldOption"} {
		if !strings.Contains(got, want) {
			t.Errorf("lint missed %q in:\n%s", want, got)
		}
	}
	if len(*problems) != 3 {
		t.Fatalf("problems = %v, want exactly the 3 stale references", *problems)
	}
}

func TestFlagDocsLint(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/wsdfoo/main.go", `package main

import (
	"flag"
	"time"
)

func main() {
	_ = flag.String("in", "", "input")
	_ = flag.Int("m", 10, "budget")
	_ = flag.Bool("exact", false, "oracle")
	_ = flag.Duration("timeout", time.Second, "bound")
	var out string
	flag.StringVar(&out, "out", "", "output")
	flag.Func("exclude", "patterns to skip", func(string) error { return nil })
}
`)
	write(t, root, "cmd/wsdbar/main.go", `package main

import "flag"

func main() { _ = flag.Int64("seed", 1, "seed") }
`)
	write(t, root, "docs/operations.md", `# Operations

## wsdfoo

| flag | meaning |
|---|---|
| `+"`-in`"+` | input |
| `+"`-timeout`"+` | bound |
| `+"`-out`"+` | output |

`+"`-mom`"+` is not the -m flag: the delimiter check must not let it satisfy -m.

## unrelated

`+"`-exact`"+` and `+"`-seed`"+` documented outside any binary section count
for nothing.
`)
	report, problems := collect()
	if err := lintFlagDocs(root, report); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(*problems, "\n")
	// -m is undocumented (the -mom mention must not satisfy it), -exact is
	// documented only outside wsdfoo's section, -exclude (a flag.Func
	// registration) is undocumented, and wsdbar has no section.
	for _, want := range []string{"flag -m of cmd/wsdfoo", "flag -exact of cmd/wsdfoo", "flag -exclude of cmd/wsdfoo", "cmd/wsdbar has no section"} {
		if !strings.Contains(got, want) {
			t.Errorf("lint missed %q in:\n%s", want, got)
		}
	}
	for _, clean := range []string{"-in", "-timeout", "-out"} {
		for _, p := range *problems {
			if strings.Contains(p, "flag "+clean+" ") {
				t.Errorf("lint flagged documented flag: %s", p)
			}
		}
	}
	if len(*problems) != 4 {
		t.Errorf("problems = %v, want exactly 4", *problems)
	}
}

// TestFlagDocsLintStaleRow: a flag-table row naming a flag the binary does
// not register (a removed flag's leftover) is reported, scoped to the
// binary's own section; a registered flag's row and a stale-looking mention
// outside any table row are not.
func TestFlagDocsLintStaleRow(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/wsdfoo/main.go", `package main

import "flag"

func main() { _ = flag.Int("m", 10, "budget") }
`)
	write(t, root, "cmd/wsdbar/main.go", `package main

import "flag"

func main() { _ = flag.Bool("append", false, "append") }
`)
	write(t, root, "docs/operations.md", `# Operations

## wsdfoo

| flag | meaning |
|---|---|
| `+"`-m`"+` | budget |
| `+"`-append`"+` | removed from wsdfoo; wsdbar's -append must not excuse it |

`+"`-gone`"+` in prose is not a table row.

## wsdbar

| `+"`-append`"+` | append |
`)
	report, problems := collect()
	if err := lintFlagDocs(root, report); err != nil {
		t.Fatal(err)
	}
	if len(*problems) != 1 || !strings.Contains((*problems)[0], "flag -append is documented for cmd/wsdfoo, which does not register it") {
		t.Fatalf("problems = %v, want exactly wsdfoo's stale -append row", *problems)
	}
}

func TestFlagDocsLintMissingGuide(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/wsdfoo/main.go", `package main

import "flag"

func main() { _ = flag.Int("m", 10, "budget") }
`)
	report, problems := collect()
	if err := lintFlagDocs(root, report); err != nil {
		t.Fatal(err)
	}
	if len(*problems) != 1 || !strings.Contains((*problems)[0], "operations.md: missing") {
		t.Fatalf("problems = %v, want exactly the missing-guide report", *problems)
	}
}

func TestBinarySection(t *testing.T) {
	doc := "# guide\n\n## wsdfoo\n\nfoo `-a`\n\n### details\n\nstill foo `-b`\n\n## wsdbarlike\n\nnot foo\n"
	section, ok := binarySection(doc, "wsdfoo")
	if !ok {
		t.Fatal("section not found")
	}
	for _, want := range []string{"`-a`", "`-b`"} {
		if !strings.Contains(section, want) {
			t.Errorf("section missing %s:\n%s", want, section)
		}
	}
	if strings.Contains(section, "not foo") {
		t.Errorf("section leaked past the next same-level heading:\n%s", section)
	}
	// wsdbar must not match the wsdbarlike heading (word boundaries).
	if _, ok := binarySection(doc, "wsdbar"); ok {
		t.Error("wsdbar matched the wsdbarlike heading")
	}
}

func TestBinarySectionIgnoresFencedCode(t *testing.T) {
	doc := strings.Join([]string{
		"# guide",
		"```sh",
		"# wsdfoo feeds the pipeline — a shell comment, not a heading",
		"```",
		"## wsdfoo",
		"real section `-a`",
		"```sh",
		"# another comment that must not end the section",
		"```",
		"still in section `-b`",
		"## other",
		"outside `-c`",
	}, "\n")
	section, ok := binarySection(doc, "wsdfoo")
	if !ok {
		t.Fatal("section not found")
	}
	if strings.Contains(section, "shell comment") {
		t.Errorf("section started at a fenced comment:\n%s", section)
	}
	for _, want := range []string{"`-a`", "`-b`"} {
		if !strings.Contains(section, want) {
			t.Errorf("section missing %s (fence comment split it):\n%s", want, section)
		}
	}
	if strings.Contains(section, "`-c`") {
		t.Errorf("section leaked past the next real heading:\n%s", section)
	}
}

func TestRouteDocsLint(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/serve/routes.go", `package serve

var routes = []string{"GET /healthz", "POST /ingest", "PUT /policy"}

// Extra routes count too; an error message naming a route does not.
var extra = map[string]int{"DELETE /policy/shadow": 1}

var msg = "serve: DELETE /policy/shadow first"
`)
	write(t, root, "internal/serve/routes_test.go", `package serve

var testOnly = "GET /not-a-route"
`)
	write(t, root, "docs/operations.md", `# Operations

### Endpoints (both modes)

| endpoint | reply |
|---|---|
| `+"`GET /healthz`"+` | readiness |
| `+"`POST /ingest`"+` | events |

### Later

`+"`PUT /policy`"+` mentioned outside the table counts for nothing.
`)
	report, problems := collect()
	if err := lintRouteDocs(root, report); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(*problems, "\n")
	for _, want := range []string{"route PUT /policy", "route DELETE /policy/shadow"} {
		if !strings.Contains(got, want) {
			t.Errorf("lint missed %q in:\n%s", want, got)
		}
	}
	if len(*problems) != 2 {
		t.Errorf("problems = %v, want exactly the 2 undocumented routes", *problems)
	}
}

// TestFuzzTargetsLint: a fuzz target missing from FUZZ_TARGETS and an entry
// naming no fuzz target are both reported; a listed target (at the root and
// in a subpackage), a Fuzzy helper and a method named Fuzz are not.
func TestFuzzTargetsLint(t *testing.T) {
	root := t.TempDir()
	write(t, root, "Makefile", "GO ?= go\n\nFUZZ_TARGETS = \\\n\t.:FuzzRoot \\\n\t./internal/a:FuzzListed ./internal/a:FuzzGone \\\n\t./internal/b:FuzzMoved\n\nfuzz-smoke:\n\techo FUZZ_TARGETS = ./x:FuzzNot\n")
	write(t, root, "root_test.go", "package root\n\nimport \"testing\"\n\nfunc FuzzRoot(f *testing.F) {}\n")
	write(t, root, "internal/a/a_test.go", `package a

import "testing"

func FuzzListed(f *testing.F) {}

func FuzzUnlisted(f *testing.F) {}

func Fuzzy() {}

type T struct{}

func (T) FuzzMethod() {}
`)
	write(t, root, "internal/c/c_test.go", "package c\n\nimport \"testing\"\n\nfunc FuzzMoved(f *testing.F) {}\n")
	write(t, root, "internal/a/testdata/x_test.go", "package x\n\nfunc FuzzIgnored() {}\n")
	report, problems := collect()
	if err := lintFuzzTargets(root, report); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(*problems, "\n")
	for _, want := range []string{
		"fuzz target ./internal/a:FuzzUnlisted is not in FUZZ_TARGETS",
		"fuzz target ./internal/c:FuzzMoved is not in FUZZ_TARGETS",
		"entry ./internal/a:FuzzGone names no fuzz target",
		"entry ./internal/b:FuzzMoved names no fuzz target",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("lint missed %q in:\n%s", want, got)
		}
	}
	if len(*problems) != 4 {
		t.Fatalf("problems = %v, want exactly the 4 above", *problems)
	}
}

// TestRepositoryIsClean runs the linter over the real repository: the gate CI
// enforces, as a test, so `go test ./...` catches doc rot even without make.
func TestRepositoryIsClean(t *testing.T) {
	report, problems := collect()
	for _, lint := range lints {
		if err := lint("../..", report); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range *problems {
		t.Error(p)
	}
}
