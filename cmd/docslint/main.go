// Command docslint is the documentation gate behind `make docs-check`. It
// enforces seven invariants the prose documentation system depends on:
//
//  1. Every exported identifier in the facade package (the module root) has
//     a doc comment — the facade is the supported API surface, and an
//     undocumented export there is a documentation bug.
//  2. Every Go package in the repository has a package doc comment.
//  3. Every relative link in the markdown documentation (README.md,
//     ARCHITECTURE.md, everything under docs/) points at a file that
//     exists, so the docs cannot silently rot as files move.
//  4. Every command-line flag registered by a cmd/* binary
//     (flag.String/Int/Bool/Duration/... in its main.go) is documented in
//     docs/operations.md, inside that binary's section, and every
//     "| `-name` |" flag-table row there names a flag the binary registers —
//     the operator guide's flag tables are complete and current by
//     construction, not by discipline.
//  5. Every HTTP route the serving layer registers (each "METHOD /path"
//     string in internal/serve: the shared route table and each mode's
//     extra routes) appears in the "Endpoints (both modes)" table of
//     docs/operations.md.
//  6. Every wsd.Name reference in the markdown documentation (README.md,
//     ARCHITECTURE.md, everything under docs/) names an exported identifier
//     of the facade package, so a removed or renamed facade API cannot live
//     on in the guides. ROADMAP.md and CHANGES.md are history, not guides,
//     and are not checked.
//  7. Every fuzz target in the module (a func Fuzz* in a _test.go file) is
//     an entry of the Makefile's FUZZ_TARGETS list, which `make fuzz-smoke`
//     runs, and every entry names a fuzz target that exists — so no fuzz
//     target goes unrun, and the list cannot keep a deleted one.
//
// It prints one line per violation and exits 1 if any were found.
//
// Usage:
//
//	docslint [-root .]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	for _, lint := range lints {
		if err := lint(*root, report); err != nil {
			fatal(err)
		}
	}

	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// lints are the checks, in the order the package comment lists them.
var lints = []func(root string, report func(string, ...any)) error{
	lintFacadeExports, lintPackageDocs, lintMarkdownLinks,
	lintFlagDocs, lintRouteDocs, lintFacadeRefs, lintFuzzTargets,
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
	os.Exit(2)
}

// facadeDecls parses the root package's non-test files and calls fn on
// every top-level declaration.
func facadeDecls(root string, fn func(*token.FileSet, ast.Decl)) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, root, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return err
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn(fset, decl)
			}
		}
	}
	return nil
}

// lintFacadeExports checks that every exported top-level identifier (and
// every exported method) in the root package carries a doc comment.
func lintFacadeExports(root string, report func(string, ...any)) error {
	return facadeDecls(root, func(fset *token.FileSet, decl ast.Decl) { checkDecl(fset, decl, report) })
}

// facadeRef matches a reference to a facade identifier: wsd.Name.
var facadeRef = regexp.MustCompile(`\bwsd\.([A-Z]\w*)`)

// lintFacadeRefs checks that every wsd.Name in the markdown documentation
// names an exported top-level identifier of the root package (a function,
// type, constant or variable).
func lintFacadeRefs(root string, report func(string, ...any)) error {
	exported := map[string]bool{}
	err := facadeDecls(root, func(_ *token.FileSet, decl ast.Decl) {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, name := range s.Names {
						exported[name.Name] = true
					}
				}
			}
		}
	})
	if err != nil {
		return err
	}
	return eachDocLine(root, func(file string, line int, text string) {
		for _, m := range facadeRef.FindAllStringSubmatch(text, -1) {
			if !exported[m[1]] {
				report("%s:%d: wsd.%s is not an exported identifier of the facade package", file, line, m[1])
			}
		}
	})
}

func checkDecl(fset *token.FileSet, decl ast.Decl, report func(string, ...any)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		if d.Doc.Text() == "" {
			report("%s: exported %s %s has no doc comment", pos(fset, d.Pos()), kindOf(d), nameOf(d))
		}
	case *ast.GenDecl:
		// A doc comment on the grouped declaration covers its specs (the
		// conventional style for const/var blocks); a spec's own comment
		// also counts.
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" {
					report("%s: exported type %s has no doc comment", pos(fset, s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
						report("%s: exported %s %s has no doc comment", pos(fset, name.Pos()), d.Tok, name.Name)
					}
				}
			}
		}
	}
}

// kindOf distinguishes methods from functions for readable messages.
func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// nameOf renders Recv.Name for methods.
func nameOf(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

func pos(fset *token.FileSet, p token.Pos) string {
	position := fset.Position(p)
	return fmt.Sprintf("%s:%d", position.Filename, position.Line)
}

// lintPackageDocs checks that every package in the module has a package doc
// comment on at least one of its files.
func lintPackageDocs(root string, report func(string, ...any)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") && path != root {
			return filepath.SkipDir
		}
		if name == "testdata" {
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			// Directories without Go files are fine; real parse errors are
			// the build's problem, not the doc linter's.
			return nil
		}
		for pkgName, pkg := range pkgs {
			documented := false
			for _, file := range pkg.Files {
				if file.Doc.Text() != "" {
					documented = true
					break
				}
			}
			if !documented {
				report("%s: package %s has no package doc comment", path, pkgName)
			}
		}
		return nil
	})
}

// flagNameArg maps each flag-registration function to the position of its
// name argument, covering the typed constructors, their *Var forms, and the
// value/function-based registrations — any way a cmd can grow a flag must
// land in the docs gate.
var flagNameArg = map[string]int{
	"String": 0, "Bool": 0, "Int": 0, "Int64": 0,
	"Uint": 0, "Uint64": 0, "Float64": 0, "Duration": 0,
	"StringVar": 1, "BoolVar": 1, "IntVar": 1, "Int64Var": 1,
	"UintVar": 1, "Uint64Var": 1, "Float64Var": 1, "DurationVar": 1,
	"Var": 1, "TextVar": 1,
	"Func": 0, "BoolFunc": 0,
}

// lintFlagDocs checks that every flag a cmd/* binary registers appears in
// docs/operations.md within that binary's section, and that every flag-table
// row there names a registered flag, so the operator guide's flag reference
// cannot rot as flags are added or removed.
func lintFlagDocs(root string, report func(string, ...any)) error {
	cmdDir := filepath.Join(root, "cmd")
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // a repo without cmd/ has nothing to check
		}
		return err
	}
	opsPath := filepath.Join(root, "docs", "operations.md")
	ops, err := os.ReadFile(opsPath)
	if err != nil {
		if os.IsNotExist(err) {
			report("%s: missing (the cmd/* flag reference lives here)", opsPath)
			return nil
		}
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		bin := e.Name()
		flags, err := registeredFlags(filepath.Join(cmdDir, bin))
		if err != nil {
			return err
		}
		if len(flags) == 0 {
			continue
		}
		section, ok := binarySection(string(ops), bin)
		if !ok {
			report("%s: cmd/%s has no section in docs/operations.md (registers %d flag(s))", opsPath, bin, len(flags))
			continue
		}
		for _, f := range flags {
			// A documented flag is written `-name` (a backticked table cell
			// or inline mention); requiring a closing delimiter keeps -m
			// from matching -mom.
			documented := false
			for _, delim := range []string{"`", " ", "="} {
				if strings.Contains(section, "`-"+f+delim) {
					documented = true
					break
				}
			}
			if !documented {
				report("%s: flag -%s of cmd/%s is not documented in docs/operations.md", opsPath, f, bin)
			}
		}
		// The reverse direction: a flag-table row must name a flag the
		// binary still registers, so a removed flag cannot leave its row.
		for _, line := range strings.Split(section, "\n") {
			row, ok := strings.CutPrefix(line, "| `-")
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(row, "`")
			if !slices.Contains(flags, name) {
				report("%s: flag -%s is documented for cmd/%s, which does not register it", opsPath, name, bin)
			}
		}
	}
	return nil
}

// registeredFlags parses a cmd directory and returns the names of the flags
// it registers through the standard flag package.
func registeredFlags(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var flags []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok || recv.Name != "flag" {
					return true
				}
				argIdx, ok := flagNameArg[sel.Sel.Name]
				if !ok || len(call.Args) <= argIdx {
					return true
				}
				lit, ok := call.Args[argIdx].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if fname, err := strconv.Unquote(lit.Value); err == nil {
					flags = append(flags, fname)
				}
				return true
			})
		}
	}
	sort.Strings(flags)
	return flags, nil
}

// binarySection extracts the part of the operations guide that documents
// the named binary: from the first markdown heading mentioning the binary to
// the next heading of the same or higher level. Scoping per binary keeps a
// flag documented for one tool (say wsdgen's -seed) from satisfying another
// tool's identically named flag.
func binarySection(doc, bin string) (string, bool) {
	lines := strings.Split(doc, "\n")
	level := 0
	start := -1
	inFence := false
	for i, line := range lines {
		// A '#' inside a fenced code block is a shell comment, not a
		// heading; letting it start or end a section would mis-scope the
		// flag check around the guide's own example snippets.
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		l := len(line) - len(strings.TrimLeft(line, "#"))
		if start < 0 {
			if matchesWord(line, bin) {
				start, level = i, l
			}
			continue
		}
		if l <= level {
			return strings.Join(lines[start:i], "\n"), true
		}
	}
	if start < 0 {
		return "", false
	}
	return strings.Join(lines[start:], "\n"), true
}

// matchesWord reports whether s mentions word with no identifier characters
// around it (so "wsdserve" does not match a hypothetical "wsdserve2").
func matchesWord(s, word string) bool {
	for idx := 0; ; {
		j := strings.Index(s[idx:], word)
		if j < 0 {
			return false
		}
		j += idx
		before := j == 0 || !isWordByte(s[j-1])
		afterIdx := j + len(word)
		after := afterIdx >= len(s) || !isWordByte(s[afterIdx])
		if before && after {
			return true
		}
		idx = j + len(word)
	}
}

func isWordByte(b byte) bool {
	return b == '_' || b == '-' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// routePattern matches a net/http mux pattern with a method: "GET /healthz".
var routePattern = regexp.MustCompile(`^(GET|HEAD|POST|PUT|PATCH|DELETE) /\S*$`)

// endpointsHeading names the operations guide's endpoint table.
const endpointsHeading = "Endpoints (both modes)"

// lintRouteDocs checks that every route the serving layer registers is a row
// of the operations guide's endpoint table. Routes are found as string
// literals shaped like mux patterns in internal/serve's non-test files, so a
// route added to the table or to a mode's extras cannot ship undocumented.
func lintRouteDocs(root string, report func(string, ...any)) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, "internal", "serve"), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // no serving layer, nothing to check
		}
		return err
	}
	var routes []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil && routePattern.MatchString(v) {
						routes = append(routes, v)
					}
				}
				return true
			})
		}
	}
	opsPath := filepath.Join(root, "docs", "operations.md")
	ops, err := os.ReadFile(opsPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	// A missing guide or section leaves table empty, so every route reports.
	table, _ := binarySection(string(ops), endpointsHeading)
	for _, rt := range routes {
		if !strings.Contains(table, "`"+rt+"`") {
			report("%s: route %s of internal/serve is not documented in the %q table", opsPath, rt, endpointsHeading)
		}
	}
	return nil
}

// mdLink matches markdown inline links and images; group 1 is the target.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// eachDocLine calls fn on every line of the markdown documentation set:
// README.md, ARCHITECTURE.md and docs/*.md (line numbers start at 1).
func eachDocLine(root string, fn func(file string, line int, text string)) error {
	var files []string
	for _, name := range []string{"README.md", "ARCHITECTURE.md"} {
		p := filepath.Join(root, name)
		if _, err := os.Stat(p); err == nil {
			files = append(files, p)
		}
	}
	docs := filepath.Join(root, "docs")
	if entries, err := os.ReadDir(docs); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
				files = append(files, filepath.Join(docs, e.Name()))
			}
		}
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			fn(file, i+1, line)
		}
	}
	return nil
}

// lintMarkdownLinks checks that relative links in the documentation set
// resolve to existing files.
func lintMarkdownLinks(root string, report func(string, ...any)) error {
	return eachDocLine(root, func(file string, line int, text string) {
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				report("%s:%d: broken relative link %q", file, line, m[1])
			}
		}
	})
}

// fuzzList matches the Makefile's FUZZ_TARGETS assignment, backslash
// continuations included; group 1 is its value.
var fuzzList = regexp.MustCompile(`(?m)^FUZZ_TARGETS[ \t]*=((?:.*\\\n)*.*)`)

// lintFuzzTargets checks the Makefile's FUZZ_TARGETS list against the fuzz
// targets in the module's test files, both ways. An entry is package:Target,
// the package as a ./-relative directory (. for the root).
func lintFuzzTargets(root string, report func(string, ...any)) error {
	makefile := filepath.Join(root, "Makefile")
	data, err := os.ReadFile(makefile)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	listed := map[string]bool{}
	if m := fuzzList.FindSubmatch(data); m != nil {
		for _, entry := range strings.Fields(strings.ReplaceAll(string(m[1]), "\\\n", " ")) {
			dir, name, _ := strings.Cut(entry, ":")
			listed[fuzzEntry(dir, name)] = true
		}
	}
	found, err := fuzzTargets(root)
	if err != nil {
		return err
	}
	for _, t := range found {
		if !listed[t] {
			report("%s: fuzz target %s is not in FUZZ_TARGETS", makefile, t)
		}
		delete(listed, t)
	}
	for t := range listed {
		report("%s: FUZZ_TARGETS entry %s names no fuzz target", makefile, t)
	}
	return nil
}

// fuzzEntry renders a fuzz target as a FUZZ_TARGETS entry: ./dir:Name, or
// .:Name at the root.
func fuzzEntry(dir, name string) string {
	if dir = filepath.ToSlash(filepath.Clean(dir)); dir != "." {
		dir = "./" + dir
	}
	return dir + ":" + name
}

// fuzzTargets returns every fuzz target in the test files under root as a
// FUZZ_TARGETS entry. A fuzz target is what go test runs with -fuzz: a
// top-level func named Fuzz, or Fuzz followed by a character that is not a
// lower-case letter.
func fuzzTargets(root string) ([]string, error) {
	var targets []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil // a parse error is the build's problem
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if rest, ok := strings.CutPrefix(fn.Name.Name, "Fuzz"); ok && (rest == "" || !unicode.IsLower([]rune(rest)[0])) {
				targets = append(targets, fuzzEntry(dir, fn.Name.Name))
			}
		}
		return nil
	})
	sort.Strings(targets)
	return targets, err
}
