package bench

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The exported-surface rule: an exported identifier under internal/
// (function, method on an exported type, type, constant or variable)
// stays iff a non-test file in another package uses it, or it is on the
// committed list in testdata/unreferenced.txt with a reason:
//
//	interface      a method an interface outside this repo requires
//	sentinel       an error value, error type or wire error code that
//	               callers match (errors.Is/As, ServiceError.Code)
//	inferred       a type callers hold without naming (results, handles,
//	               constraint and field types of an API they do name)
//	paper-feature  a mechanism of the paper exercised end to end by tests
//	golden         sim.Scheduler.Stats, the run-token handoff counts
//	               simnet's TestHandoffBudget pins
//
// The list may shrink; a new callerless export fails the test. Uses are
// resolved by go/types: an identifier counts for the object it denotes
// (the generic origin of an instance); a type counts where a value of it
// is held, even through inference, and where it constrains an
// instantiated generic; a method counts where its type is converted to
// an interface that has the method, and String and Error also where a
// value is passed as an empty interface (fmt may print it).

// surfaceParentExported is the exported-identifier count at the commit
// before the rule landed.
const surfaceParentExported = 975

const (
	surfaceMaxExported = surfaceParentExported * 9 / 10
	surfaceMaxListed   = 110
)

var surfaceReasons = map[string]bool{
	"interface": true, "sentinel": true, "inferred": true, "paper-feature": true, "golden": true,
}

const modulePath = "p2pdrm"

// modFile is one parsed file of the module.
type modFile struct {
	ast  *ast.File
	test bool // a _test.go file
}

// modPkg is one type-checked package: a directory's files, with its
// in-package tests folded in (they cannot add an import cycle), or the
// directory's external _test package.
type modPkg struct {
	path  string // import path; an external test package's ends in "_test"
	files []modFile
	types *types.Package
	info  *types.Info
}

var (
	typedModuleOnce sync.Once
	typedModule     []*modPkg
	typedModuleErr  error
)

// loadModule parses and type-checks every package in the module once per
// test binary. Standard-library imports come from the compiler's export
// data.
func loadModule(t *testing.T) []*modPkg {
	t.Helper()
	typedModuleOnce.Do(func() { typedModule, typedModuleErr = checkModule() })
	if typedModuleErr != nil {
		t.Fatal(typedModuleErr)
	}
	return typedModule
}

func checkModule() ([]*modPkg, error) {
	fset := token.NewFileSet()
	byPath := map[string]*modPkg{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := path.Join(modulePath, filepath.ToSlash(filepath.Dir(p)))
		test := strings.HasSuffix(p, "_test.go")
		if test && strings.HasSuffix(f.Name.Name, "_test") {
			ipath += "_test"
		}
		pkg := byPath[ipath]
		if pkg == nil {
			pkg = &modPkg{path: ipath}
			byPath[ipath] = pkg
		}
		pkg.files = append(pkg.files, modFile{f, test})
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.Default()
	var check func(ipath string) (*types.Package, error)
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		if ipath == modulePath || strings.HasPrefix(ipath, modulePath+"/") {
			return check(ipath)
		}
		return std.Import(ipath)
	})
	check = func(ipath string) (*types.Package, error) {
		pkg := byPath[ipath]
		if pkg == nil {
			return nil, fmt.Errorf("no package %s in the module", ipath)
		}
		if pkg.types != nil {
			return pkg.types, nil
		}
		pkg.info = &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		files := make([]*ast.File, len(pkg.files))
		for i, f := range pkg.files {
			files[i] = f.ast
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(strings.TrimSuffix(ipath, "_test"), fset, files, pkg.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", ipath, err)
		}
		pkg.types = tp
		return tp, nil
	}

	pkgs := make([]*modPkg, 0, len(byPath))
	for ipath, pkg := range byPath {
		if _, err := check(ipath); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].path < pkgs[j].path })
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function, method or field to the
// object its declaration made.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// surfaceName renders an exported identifier under internal/ as
// "pkg.Name" or "pkg.Type.Method", or "" when obj is not one.
func surfaceName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	pkg, ok := strings.CutPrefix(obj.Pkg().Path(), modulePath+"/internal/")
	if !ok {
		return ""
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return pkg + "." + obj.Name()
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || types.IsInterface(named) || !named.Obj().Exported() || named.Obj().Parent() != obj.Pkg().Scope() {
		return "" // an interface method, or a method of an unexported type
	}
	return pkg + "." + named.Obj().Name() + "." + obj.Name()
}

// fmtMethods are the interfaces fmt looks for in any value it prints:
// fmt.Stringer and error.
var fmtMethods = []*types.Interface{
	types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)),
	}, nil).Complete(),
	types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
}

// walkSurface returns every exported identifier under internal/ as
// "pkg.Name" or "pkg.Type.Method", and the subset no non-test file in
// another package uses.
func walkSurface(t *testing.T) (exported, unreferenced []string) {
	t.Helper()
	pkgs := loadModule(t)

	used := map[types.Object]bool{}
	use := func(from *types.Package, obj types.Object) {
		if obj = origin(obj); obj != nil && obj.Pkg() != nil && obj.Pkg() != from {
			used[obj] = true
		}
	}
	// hold marks the named types a value of type t carries on its face:
	// through pointers, containers, tuples and type arguments.
	var hold func(from *types.Package, t types.Type)
	hold = func(from *types.Package, t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			use(from, t.Origin().Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				hold(from, t.TypeArgs().At(i))
			}
		case *types.Alias:
			hold(from, types.Unalias(t))
		case *types.Pointer:
			hold(from, t.Elem())
		case *types.Slice:
			hold(from, t.Elem())
		case *types.Array:
			hold(from, t.Elem())
		case *types.Chan:
			hold(from, t.Elem())
		case *types.Map:
			hold(from, t.Key())
			hold(from, t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				hold(from, t.At(i).Type())
			}
		}
	}
	// satisfy marks the methods of src that implement iface, where the
	// method is exported for it: the conversion happens in another
	// package, or the interface is declared outside src's.
	satisfy := func(from *types.Package, src types.Type, iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(src, true, m.Pkg(), m.Name())
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			if fn.Pkg() != from || m.Pkg() != fn.Pkg() {
				used[fn.Origin()] = true
			}
		}
	}
	// printed marks what fmt may call on a value of type t: String and
	// Error on the value, its elements and its exported fields.
	var printed func(from *types.Package, t types.Type, seen map[types.Type]bool)
	printed = func(from *types.Package, t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, iface := range fmtMethods {
			satisfy(from, t, iface)
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			printed(from, u.Elem(), seen)
		case *types.Slice:
			printed(from, u.Elem(), seen)
		case *types.Array:
			printed(from, u.Elem(), seen)
		case *types.Map:
			printed(from, u.Key(), seen)
			printed(from, u.Elem(), seen)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() {
					printed(from, u.Field(i).Type(), seen)
				}
			}
		}
	}
	// convert marks the methods src has for dst, when dst is an
	// interface src is used as. A value passed as an empty interface may
	// be printed.
	convert := func(from *types.Package, src, dst types.Type) {
		if src == nil || dst == nil || types.IsInterface(src) {
			return
		}
		iface, ok := dst.Underlying().(*types.Interface)
		switch {
		case !ok:
		case iface.Empty():
			printed(from, src, map[types.Type]bool{})
		default:
			satisfy(from, src, iface)
		}
	}

	for _, pkg := range pkgs {
		info, from := pkg.info, pkg.types
		typeOf := func(e ast.Expr) types.Type { return info.TypeOf(e) }
		for id, inst := range info.Instances {
			if isTestPos(pkg, id.Pos()) {
				continue
			}
			var tparams *types.TypeParamList
			switch t := info.Uses[id].Type().(type) {
			case *types.Signature:
				tparams = t.TypeParams()
			case *types.Named:
				tparams = t.TypeParams()
			}
			for i := 0; i < inst.TypeArgs.Len() && i < tparams.Len(); i++ {
				hold(from, tparams.At(i).Constraint())
				convert(from, inst.TypeArgs.At(i), tparams.At(i).Constraint())
			}
		}
		for _, f := range pkg.files {
			if f.test {
				continue
			}
			var stack []ast.Node
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.Ident:
					if obj := info.Uses[n]; obj != nil {
						use(from, obj)
					}
					if obj := info.Defs[n]; obj != nil {
						hold(from, obj.Type())
					}
				case ast.Expr:
					if tv, ok := info.Types[n]; ok && !tv.IsType() {
						hold(from, tv.Type)
					}
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
						if len(n.Args) == 1 {
							convert(from, typeOf(n.Args[0]), tv.Type)
						}
						break
					}
					sig, ok := typeOf(n.Fun).Underlying().(*types.Signature)
					if !ok {
						break
					}
					params := sig.Params()
					for i, arg := range n.Args {
						var pt types.Type
						switch {
						case sig.Variadic() && i >= params.Len()-1:
							if n.Ellipsis.IsValid() {
								continue
							}
							pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
						case i < params.Len():
							pt = params.At(i).Type()
						}
						convert(from, typeOf(arg), pt)
					}
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							convert(from, typeOf(n.Rhs[i]), typeOf(n.Lhs[i]))
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						for _, v := range n.Values {
							convert(from, typeOf(v), typeOf(n.Type))
						}
					}
				case *ast.SendStmt:
					if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
						convert(from, typeOf(n.Value), ch.Elem())
					}
				case *ast.CompositeLit:
					switch lt := typeOf(n).Underlying().(type) {
					case *types.Struct:
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if fld := info.Uses[kv.Key.(*ast.Ident)]; fld != nil {
									convert(from, typeOf(kv.Value), fld.Type())
								}
							} else if i < lt.NumFields() {
								convert(from, typeOf(elt), lt.Field(i).Type())
							}
						}
					case *types.Slice, *types.Array, *types.Map:
						elem := lt.(interface{ Elem() types.Type }).Elem()
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if m, ok := lt.(*types.Map); ok {
									convert(from, typeOf(kv.Key), m.Key())
								}
								elt = kv.Value
							}
							convert(from, typeOf(elt), elem)
						}
					}
				case *ast.ReturnStmt:
					var sig *types.Signature
					for i := len(stack) - 2; i >= 0 && sig == nil; i-- {
						switch fn := stack[i].(type) {
						case *ast.FuncDecl:
							sig = info.Defs[fn.Name].Type().(*types.Signature)
						case *ast.FuncLit:
							sig = typeOf(fn).(*types.Signature)
						}
					}
					if sig != nil && sig.Results().Len() == len(n.Results) {
						for i, r := range n.Results {
							convert(from, typeOf(r), sig.Results().At(i).Type())
						}
					}
				}
				return true
			})
		}
	}

	var decls []types.Object
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.path, modulePath+"/internal/") || strings.HasSuffix(pkg.path, "_test") {
			continue
		}
		for id, obj := range pkg.info.Defs {
			if obj != nil && !isTestPos(pkg, id.Pos()) && surfaceName(obj) != "" {
				decls = append(decls, obj)
			}
		}
	}
	for _, obj := range decls {
		name := surfaceName(obj)
		exported = append(exported, name)
		if !used[obj] {
			unreferenced = append(unreferenced, name)
		}
	}
	sort.Strings(exported)
	sort.Strings(unreferenced)
	return exported, unreferenced
}

// isTestPos reports whether pos lies in one of pkg's _test.go files.
func isTestPos(pkg *modPkg, pos token.Pos) bool {
	for _, f := range pkg.files {
		if f.ast.FileStart <= pos && pos <= f.ast.FileEnd {
			return f.test
		}
	}
	return false
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
			t.Errorf("%s is exported but no non-test file in another package uses it: unexport it, delete it, or list it with a reason", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("%s is listed in testdata/unreferenced.txt but is now used, unexported or gone: drop the line", name)
	}
	if len(order) > surfaceMaxListed {
		t.Errorf("unreferenced list has %d lines; the cap is %d", len(order), surfaceMaxListed)
	}
	if len(exported) > surfaceMaxExported {
		t.Errorf("%d exported identifiers under internal/; the cap is %d (parent %d less 10%%)", len(exported), surfaceMaxExported, surfaceParentExported)
	}
	t.Logf("exported identifiers under internal/: %d (parent %d), unreferenced: %d", len(exported), surfaceParentExported, len(unreferenced))
}

// TestNoUnsetKnobs is the unset-knob rule: every exported field of a
// *Config or *Options struct under internal/ is written somewhere in the
// module (tests and benchmark/ included) outside a fill method: as a
// composite-literal element, by an assignment or increment, or by taking
// its address. A knob nothing sets is a constant wearing a field; make it
// one. Writes resolve to the field object, so a same-named field of
// another struct does not count.
func TestNoUnsetKnobs(t *testing.T) {
	pkgs := loadModule(t)
	written := map[types.Object]bool{}
	write := func(info *types.Info, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if obj := info.Uses[sel.Sel]; obj != nil {
				written[origin(obj)] = true
			}
		}
	}
	for _, pkg := range pkgs {
		info := pkg.info
		for _, f := range pkg.files {
			for _, d := range f.ast.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "fill" {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := info.TypeOf(n).Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if obj := info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
									written[origin(obj)] = true
								}
							} else if i < st.NumFields() {
								written[st.Field(i).Origin()] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							write(info, lhs)
						}
					case *ast.IncDecStmt:
						write(info, n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(info, n.X)
						}
					}
					return true
				})
			}
		}
	}

	var knobs []string // "pkg.Type.Field"
	unset := 0
	for _, pkg := range pkgs {
		short, ok := strings.CutPrefix(pkg.path, modulePath+"/internal/")
		if !ok || strings.HasSuffix(short, "_test") {
			continue
		}
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || isTestPos(pkg, tn.Pos()) || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() || fld.Embedded() {
					continue
				}
				knob := short + "." + name + "." + fld.Name()
				knobs = append(knobs, knob)
				if !written[fld] {
					t.Errorf("%s is never set: no composite literal, assignment or address outside fill writes it; make it a constant", knob)
					unset++
				}
			}
		}
	}
	t.Logf("%d Config/Options fields under internal/, %d never set", len(knobs), unset)
}
