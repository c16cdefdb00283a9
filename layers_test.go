package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designLayers reads the import-layer table of DESIGN.md §3: one
// "| N | `pkg` `pkg` ... |" row per layer.
func designLayers(t *testing.T) map[string]int {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| (\\d) \\| ((?:`[a-z]+` ?)+) \\|$")
	name := regexp.MustCompile("`([a-z]+)`")
	layers := make(map[string]int)
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		n, _ := strconv.Atoi(m[1])
		for _, p := range name.FindAllStringSubmatch(m[2], -1) {
			if _, dup := layers[p[1]]; dup {
				t.Fatalf("DESIGN.md places package %s in two layers", p[1])
			}
			layers[p[1]] = n
		}
	}
	if len(layers) == 0 {
		t.Fatal("DESIGN.md has no import-layer table")
	}
	return layers
}

// TestImportLayers fails on any non-test import under internal/ that
// goes from a lower layer to a higher one, and on any internal package
// the layer table does not place.
func TestImportLayers(t *testing.T) {
	layers := designLayers(t)
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := d.Name()
		from, ok := layers[pkg]
		if !ok {
			t.Errorf("internal/%s has no layer in DESIGN.md §3", pkg)
			continue
		}
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				dep, ok := strings.CutPrefix(path, "repro/internal/")
				if !ok {
					continue
				}
				dep, _, _ = strings.Cut(dep, "/")
				to, ok := layers[dep]
				if !ok {
					t.Errorf("%s imports %s, which has no layer in DESIGN.md §3", file, path)
				} else if to > from {
					t.Errorf("%s (layer %d) imports %s (layer %d)", file, from, path, to)
				}
			}
		}
	}
}
