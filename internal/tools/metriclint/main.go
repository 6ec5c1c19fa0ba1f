// Command metriclint cross-checks the metric names registered in code
// against the README's metric-name table, so the two cannot drift: every
// registered metric must have a documented row, and every documented row must
// correspond to a registration. It is part of `make verify`.
//
// Registrations are found by scanning non-test Go files for
// Counter/Gauge/Histogram/Family calls whose name argument is a string
// literal or an fmt.Sprintf with a literal format (a `%d` verb
// renders as the README's `<i>` placeholder). A Family registration expands
// to one name per schema sub-metric (`<family>.<counter>`, `<family>.<hist>`,
// `<family>.<ewma>`). Calls with non-literal name arguments — e.g. index-
// addressed FamilyEntry.Counter(i) lookups — are not registrations and are
// ignored. internal/obs (the metrics layer itself) and internal/tools are
// skipped.
//
// Usage: metriclint [-root .] [-readme README.md]
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
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to scan")
	readme := flag.String("readme", "README.md", "README path relative to -root")
	flag.Parse()

	registered, err := scanRegistrations(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(1)
	}
	documented, err := scanReadme(filepath.Join(*root, *readme))
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(1)
	}

	fail := false
	for _, name := range sorted(registered) {
		if _, ok := documented[name]; !ok {
			fmt.Printf("metriclint: %s: metric %q is registered but missing from the README metric table\n",
				registered[name], name)
			fail = true
		}
	}
	for _, name := range sorted(documented) {
		if _, ok := registered[name]; !ok {
			fmt.Printf("metriclint: README documents metric %q but nothing registers it\n", name)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("metriclint: %d metrics registered, all documented\n", len(registered))
}

// scanRegistrations walks root for non-test Go files and collects every
// metric name registered through a Counter/Gauge/Histogram/Family call,
// mapped to the "file:line" of its registration site.
func scanRegistrations(root string) (map[string]string, error) {
	names := make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case ".git", "internal/obs", "internal/tools":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", rel, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			kind := sel.Sel.Name
			if kind != "Counter" && kind != "Gauge" && kind != "Histogram" && kind != "Family" {
				return true
			}
			name, ok := literalName(call.Args[0])
			if !ok {
				return true // non-literal name arg: a lookup, not a registration
			}
			site := fmt.Sprintf("%s:%d", rel, fset.Position(call.Pos()).Line)
			if kind == "Family" && len(call.Args) >= 2 {
				for _, sub := range familySubNames(call.Args[1]) {
					names[name+"."+sub] = site
				}
				return true
			}
			names[name] = site
			return true
		})
		return nil
	})
	return names, err
}

// literalName resolves a metric-name argument to its documented form: a
// plain string literal, or an fmt.Sprintf whose format is a literal — its
// verbs render as the README's `<i>` placeholder.
func literalName(arg ast.Expr) (string, bool) {
	if s, ok := stringLit(arg); ok {
		return s, true
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" || len(call.Args) == 0 {
		return "", false
	}
	format, ok := stringLit(call.Args[0])
	if !ok {
		return "", false
	}
	return regexp.MustCompile(`%[a-zA-Z]`).ReplaceAllString(format, "<i>"), true
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// familySubNames extracts the sub-metric names from a FamilySchema composite
// literal: every Counters element plus the Hist and EWMA names.
func familySubNames(schema ast.Expr) []string {
	lit, ok := schema.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var subs []string
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Counters":
			if arr, ok := kv.Value.(*ast.CompositeLit); ok {
				for _, c := range arr.Elts {
					if s, ok := stringLit(c); ok {
						subs = append(subs, s)
					}
				}
			}
		case "Hist", "EWMA":
			if s, ok := stringLit(kv.Value); ok && s != "" {
				subs = append(subs, s)
			}
		}
	}
	return subs
}

// scanReadme collects the metric names from the README's metric table: rows
// of the form "| `name` | kind | ..." whose kind cell names a metric kind
// (the span-name table and other tables fail that filter).
func scanReadme(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rowRe := regexp.MustCompile("^\\|\\s*`([^`]+)`\\s*\\|\\s*([^|]+)\\|")
	kinds := map[string]bool{"counter": true, "gauge": true, "histogram": true, "family": true}
	names := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		m := rowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		kind := strings.Fields(strings.TrimSpace(m[2]))
		if len(kind) == 0 || !kinds[kind[0]] {
			continue
		}
		names[m[1]] = true
	}
	return names, nil
}

func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
