package bench

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The exported-surface rule: an exported identifier under internal/
// (function, method on an exported type, type, constant or variable)
// stays iff a non-test file in another package names it, or it is on the
// committed list in testdata/unreferenced.txt with a reason:
//
//	interface      a method an interface outside this repo requires
//	sentinel       an error value, error type or wire error code that
//	               callers match (errors.Is/As, ServiceError.Code)
//	inferred       a type callers hold without naming (results, handles,
//	               constraint and field types of an API they do name)
//	paper-feature  a mechanism of the paper exercised end to end by tests
//	golden         sim.Queue/WaitGroup, the vocabulary of PR 15's
//	               interleaving golden log
//
// The list may shrink; a new callerless export fails the test. The walk
// is go/parser + go/ast only, so "names it" is syntactic: pkg.Name for
// package-level identifiers, any x.Name selector for methods.

// surfaceParentExported is the exported-identifier count this walker
// reports at the commit before the rule landed.
const surfaceParentExported = 975

const (
	surfaceMaxExported = surfaceParentExported * 9 / 10
	surfaceMaxListed   = 110
)

var surfaceReasons = map[string]bool{
	"interface": true, "sentinel": true, "inferred": true, "paper-feature": true, "golden": true,
}

// walkSurface returns every exported identifier under internal/ as
// "pkg.Name" or "pkg.Type.Method", and the subset no non-test file in
// another package names.
func walkSurface(t *testing.T) (exported, unreferenced []string) {
	t.Helper()
	const modPrefix = "p2pdrm/internal/"
	fset := token.NewFileSet()
	type decl struct{ dir, pkgName, method string }
	var decls []decl
	pkgRefs := map[string]map[string]bool{} // "pkg.Name" -> dirs naming it
	selRefs := map[string]map[string]bool{} // selector name -> dirs using it
	mark := func(m map[string]map[string]bool, k, dir string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][dir] = true
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						decls = append(decls, decl{dir, pkg + "." + d.Name.Name, ""})
					} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
						decls = append(decls, decl{dir, pkg + "." + recv + "." + d.Name.Name, d.Name.Name})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, decl{dir, pkg + "." + s.Name.Name, ""})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls = append(decls, decl{dir, pkg + "." + n.Name, ""})
								}
							}
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name -> package under internal/
		for _, im := range f.Imports {
			pkg, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), modPrefix)
			if !ok {
				continue
			}
			local := filepath.Base(pkg)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if pkg, ok := imports[id.Name]; ok {
					mark(pkgRefs, pkg+"."+sel.Sel.Name, dir)
					return true
				}
			}
			mark(selRefs, sel.Sel.Name, dir)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		refs := pkgRefs[d.pkgName]
		if d.method != "" {
			refs = selRefs[d.method]
		}
		named := false
		for dir := range refs {
			if dir != d.dir {
				named = true
				break
			}
		}
		exported = append(exported, d.pkgName)
		if !named {
			unreferenced = append(unreferenced, d.pkgName)
		}
	}
	sort.Strings(exported)
	sort.Strings(unreferenced)
	return exported, unreferenced
}

func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestExportedSurface recomputes the unreferenced set and diffs it
// against the committed list.
func TestExportedSurface(t *testing.T) {
	exported, unreferenced := walkSurface(t)

	f, err := os.Open("testdata/unreferenced.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || !surfaceReasons[fields[1]] {
			t.Errorf("testdata/unreferenced.txt: %q is not \"identifier reason\" with a known reason", sc.Text())
			continue
		}
		listed[fields[0]] = true
		order = append(order, fields[0])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(order) {
		t.Error("testdata/unreferenced.txt is not sorted")
	}

	for _, name := range unreferenced {
		if !listed[name] {
			t.Errorf("%s is exported but no non-test file in another package names it: unexport it, delete it, or list it with a reason", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("%s is listed in testdata/unreferenced.txt but is now referenced, unexported or gone: drop the line", name)
	}
	if len(order) > surfaceMaxListed {
		t.Errorf("unreferenced list has %d lines; the cap is %d", len(order), surfaceMaxListed)
	}
	if len(exported) > surfaceMaxExported {
		t.Errorf("%d exported identifiers under internal/; the cap is %d (parent %d less 10%%)", len(exported), surfaceMaxExported, surfaceParentExported)
	}
	t.Logf("exported identifiers under internal/: %d (parent %d), unreferenced: %d", len(exported), surfaceParentExported, len(unreferenced))
}
