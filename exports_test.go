package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepExports lists the exported functions and methods of internal/
// packages that the type-checked scan of TestInternalExportsHaveCallers
// cannot see a non-test call of, each with the client that keeps it.
var keepExports = map[string]string{
	// Test fakes.
	"repro/internal/obs.NewFakeClock":      "a test fake: the obs, service, httpserver and distrib tests drive time with it",
	"repro/internal/obs.FakeClock.Advance": "a test fake: the obs, service, httpserver and distrib tests drive time with it",

	// Oracles that more than one package's tests run on production graphs.
	"repro/internal/cpg.Graph.ValidatePaths": "the structural check the gen, atm, expr and cpg tests run on every generated graph",
}

// exemptPackages are test-support packages: every caller is a test.
var exemptPackages = map[string]bool{
	"repro/internal/distrib/distribtest": true,
	"repro/internal/lint/linttest":       true,
}

// TestInternalExportsHaveCallers type-checks every non-test package of the
// tree (cmd/, examples/, scripts/, the root package and the perfbench
// module included) and fails on an exported function or method of an
// internal/ package that no non-test code references: code only tests call
// is either deleted, moved into the test that needs it, or kept on
// keepExports with the client that keeps it. Methods on unexported types
// are out of scope, and a function's references to itself do not count. A
// method that implements an interface method counts as referenced when the
// interface's method is: a call through one of the tree's interfaces, or
// error's Error and fmt.Stringer's String, which the standard library calls.
func TestInternalExportsHaveCallers(t *testing.T) {
	l := &loader{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*types.Package{},
		module: map[string]string{},
		files:  map[string][]*ast.File{},
		info:   map[string]*types.Info{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if p, err := build.ImportDir(path, 0); err == nil && len(p.GoFiles) > 0 {
			l.module[importPath(path)] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	targets := map[*types.Func]string{} // exported internal/ functions → qualified name
	used := map[*types.Func]bool{}
	for _, ip := range sortedKeys(l.module) {
		if _, err := l.Import(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
		for _, f := range l.files[ip] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					markUses(decl, nil, l.info[ip], used)
					continue
				}
				self, _ := l.info[ip].Defs[fd.Name].(*types.Func)
				markUses(fd, self, l.info[ip], used)
				if self != nil && strings.HasPrefix(ip, "repro/internal/") && !exemptPackages[ip] && fd.Name.IsExported() {
					if name, ok := qualifiedName(ip, self); ok {
						targets[self] = name
					}
				}
			}
		}
	}

	// The interfaces whose methods are called: the tree's, and error and
	// fmt.Stringer for the standard library.
	var ifaces []*types.Interface
	for fn := range used {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaces = append(ifaces, recv.Type().Underlying().(*types.Interface))
		}
	}
	fmtPkg, err := l.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces = append(ifaces,
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))

	var unused []string
	kept := map[string]bool{}
	for fn, name := range targets {
		if used[fn] || implementsUsed(fn, ifaces) {
			continue
		}
		if _, ok := keepExports[name]; ok {
			kept[name] = true
			continue
		}
		unused = append(unused, name+" ("+l.fset.Position(fn.Pos()).String()+")")
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("exported but only tests call it: %s", name)
	}
	for _, name := range sortedKeys(keepExports) {
		if !kept[name] {
			t.Errorf("keepExports lists %s, but it has a non-test caller or no longer exists", name)
		}
	}
}

// loader type-checks the tree's packages from source, the vendored ones too,
// and takes the standard library from the toolchain's export data.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package
	module map[string]string // import path → directory, for the tree's packages
	files  map[string][]*ast.File
	info   map[string]*types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.module[path]
	if !ok {
		dir = filepath.Join("vendor", filepath.FromSlash(path))
		if _, err := os.Stat(dir); err != nil {
			return l.std.Import(path)
		}
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	if _, ok := l.module[path]; ok {
		l.files[path], l.info[path] = files, info
	}
	return p, nil
}

// importPath maps a directory of the tree to its import path. The perfbench
// module is repro/perfbench, so one rule covers both modules.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// markUses records every function n references, other than self.
func markUses(n ast.Node, self *types.Func, info *types.Info, used map[*types.Func]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
				used[fn.Origin()] = true
			}
		}
		return true
	})
}

// implementsUsed reports whether method fn's receiver type, or a pointer to
// it, implements one of ifaces that has a method of fn's name.
func implementsUsed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(t, iface) {
				return true
			}
		}
	}
	return false
}

// qualifiedName names fn as path.Func or path.Type.Method; methods on
// unexported types report false.
func qualifiedName(path string, fn *types.Func) (string, bool) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return path + "." + fn.Name(), true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !named.Obj().Exported() {
		return "", false
	}
	return path + "." + named.Obj().Name() + "." + fn.Name(), true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
