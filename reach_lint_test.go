package sam

import (
	"fmt"
	"go/ast"
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

// reachExempt lists, each with its reason, the declarations TestReachable
// accepts although no entry point reaches them. They are test support that
// the tests of several packages share, so no one package's _test.go file
// can hold them. An exempt declaration counts as a root: what it uses is
// reached through it.
var reachExempt = map[string]string{
	"token.MustParse": "the stream oracle: tests of core, comp, custard, sim and " +
		"others write expected token streams in the paper's notation",
	"tensor.IdenticalBits": "the bit-identity oracle that engine, Par and " +
		"artifact round-trip tests compare outputs with",
}

// TestReachable type-checks the module's non-test Go files, plus the
// benchmark's (bench/, only read), and fails on any package-level func,
// method, type, var or const that no entry point reaches. The roots are the
// main functions of cmd/, examples/ and bench/, every init, every
// package-level var initializer and the root package's exported API. A
// declaration reaches every package-level name its source mentions, and a
// reached named type reaches each of its methods whose name is the name of
// some interface's method: the lint does not track which values flow into
// which interface. Code that only tests reach is deleted, moved into a
// _test.go file, or listed in reachExempt with its reason.
func TestReachable(t *testing.T) {
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range l.decls {
		if _, ok := reachExempt[d.name]; ok {
			found[d.name] = true
			l.roots = append(l.roots, d.obj)
		}
	}
	for name := range reachExempt {
		if !found[name] {
			t.Errorf("reachExempt lists %s, which is not declared", name)
		}
	}
	reached := l.walk()
	sort.Slice(l.decls, func(i, j int) bool { return l.decls[i].obj.Pos() < l.decls[j].obj.Pos() })
	for _, d := range l.decls {
		if !reached[d.obj] {
			pos := l.fset.Position(d.obj.Pos())
			t.Errorf("%s:%d: %s is reached by no entry point", pos.Filename, pos.Line, d.name)
		}
	}
}

// reachDecl is one package-level declaration and its qualified name: the
// package's last path element, the receiver's type name for a method, then
// its own name (core.Queue.Push).
type reachDecl struct {
	obj  types.Object
	name string
}

// reachModule is the type-checked module: its declarations, the syntax each
// one depends on, and the roots.
type reachModule struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	info  *types.Info
	decls []reachDecl
	deps  map[types.Object]ast.Node // each declaration's syntax
	init  []ast.Node                // syntax that runs whether or not anything names it
	roots []types.Object            // declarations that are entry points themselves
}

// loadModule type-checks every directory under the module root that holds
// non-test Go files, bench/ included, skipping testdata and dot directories.
func loadModule() (*reachModule, error) {
	fset := token.NewFileSet()
	l := &reachModule{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		deps: map[types.Object]ast.Node{},
	}
	var paths []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		files, err := goSources(dir)
		if len(files) == 0 {
			return err
		}
		path := "sam"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		l.dirs[path] = dir
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// goSources lists a directory's non-test Go files.
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	var files []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			files = append(files, filepath.Join(dir, n))
		}
	}
	return files, err
}

// Import type-checks the module's own packages (bench/ imports them as
// sam/... too) from their sources here, once each, and the standard library
// through the source importer.
func (l *reachModule) Import(path string) (*types.Package, error) {
	dir, ours := l.dirs[path]
	if !ours {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	for _, f := range files {
		l.collect(p, f)
	}
	return p, nil
}

// collect records a file's package-level declarations and its roots.
func (l *reachModule) collect(p *types.Package, f *ast.File) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := l.info.Defs[id]
		if obj == nil || id.Name == "_" {
			l.init = append(l.init, node)
			return
		}
		if fd, ok := node.(*ast.FuncDecl); ok && fd.Recv == nil &&
			(id.Name == "init" || id.Name == "main" && p.Name() == "main") {
			l.init = append(l.init, node)
			return
		}
		if p.Path() == "sam" && id.IsExported() {
			l.roots = append(l.roots, obj)
		}
		l.deps[obj] = node
		l.decls = append(l.decls, reachDecl{obj, qualified(obj)})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
					for _, v := range s.Values {
						l.init = append(l.init, v)
					}
				}
			}
		}
	}
}

// walk marks every declaration reachable from the roots.
func (l *reachModule) walk() map[types.Object]bool {
	ifaces := l.interfaceMethods()
	reached := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if _, ours := l.deps[obj]; ours && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	uses := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := l.info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	for _, n := range l.init {
		uses(n)
	}
	for _, obj := range l.roots {
		mark(obj)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		uses(l.deps[obj])
		if named, ok := obj.Type().(*types.Named); ok && named.Obj() == obj {
			for i := range named.NumMethods() {
				if m := named.Method(i); ifaces[m.Name()] {
					mark(m)
				}
			}
		}
	}
	return reached
}

// interfaceMethods returns the method names of every interface type the
// module mentions or any package it imports declares.
func (l *reachModule) interfaceMethods() map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				names[it.Method(i).Name()] = true
			}
		}
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	return names
}

// qualified names a declaration for reports and reachExempt.
func qualified(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	pkg := obj.Pkg().Path()
	return pkg[strings.LastIndex(pkg, "/")+1:] + "." + name
}
