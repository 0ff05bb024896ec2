package hmcsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// facadeGolden lists, one per line and sorted, every name the facade in
// hmcsim.go exports. A name added to or dropped from the facade moves
// it, so each change to the public surface shows up as a diff of this
// file. When an intended change moves it, the failing test writes the
// new list to a temporary file and prints the cp command that installs
// it here.
const facadeGolden = "testdata/facade.golden"

// TestFacadeExports pins the facade's exported names to facadeGolden.
func TestFacadeExports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "hmcsim.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	want, err := os.ReadFile(facadeGolden)
	if err == nil && string(want) == got {
		return
	}
	tmp, ferr := os.CreateTemp("", "facade-*.golden")
	if ferr == nil {
		_, ferr = tmp.WriteString(got)
		tmp.Close()
	}
	if ferr != nil {
		t.Fatalf("writing the new export list: %v", ferr)
	}
	if err != nil {
		t.Fatalf("%v; if this is the first run, install the export list with\n\tcp %s %s", err, tmp.Name(), facadeGolden)
	}
	t.Fatalf("the facade's exports differ from %s at %s\nthe new list (%d names) is in %s; if the change is intended, install it with\n\tcp %s %s",
		facadeGolden, firstDifference(string(want), got), len(names), tmp.Name(), tmp.Name(), facadeGolden)
}
