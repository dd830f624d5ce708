package mets

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllow is the census's allowlist: API that no non-test file reaches
// and that stays on purpose. Every entry names one of a closed set of
// classes:
//
//	a  a fault-injection or harness seam that only tests drive
//	b  the Go binding of a wire op the server serves
//	c  a codec field of the FST2/SuR2 formats that the goldens pin
//	d  a registry attach point (north star 4)
//	f  the query interface of a thesis structure
//
// An entry that matches no finding fails the census too, so the list cannot
// go stale. A package path ending in "/" covers every finding in it.
var deadAPIAllow = []struct{ id, class, reason string }{
	{"dstest/", "a", "crash/differential harness, driven by tests only"},
	{"vfs.MemFS.Corrupt", "a", "corruption injection"},
	{"vfs.MemFS.Truncate", "a", "torn-write injection"},
	{"vfs.MemFS.FailSyncs", "a", "fsync failure injection"},
	{"vfs.MemFS.Ops", "a", "operation count the crash sweep steps through"},
	{"vfs.SyncCounter", "a", "counts fsyncs for the barrier tests"},
	{"vfs.SyncCounter.Syncs", "a", "the fsync count the barrier tests read"},
	{"hybrid.Config.FS", "a", "injects MemFS under the journal"},
	{"client.Client.Stats", "b", "STATS"},
	{"client.Client.SnapshotBegin", "b", "SNAPSHOT_BEGIN"},
	{"client.Client.Delete", "b", "DELETE"},
	{"client.Snapshot.Get", "b", "GET inside a snapshot"},
	{"client.Snapshot.ScanN", "b", "SCAN inside a snapshot"},
	{"client.Snapshot.End", "b", "SNAPSHOT_END"},
	{"fst.Trie.SetKeyCodec", "c", "FST2 codec id"},
	{"fst.Trie.KeyCodec", "c", "FST2 codec id"},
	{"surf.Filter.SetKeyCodec", "c", "SuR2 codec id"},
	{"surf.Filter.KeyCodec", "c", "SuR2 codec id"},
	{"lsm.Config.Obs", "d", "LSM metrics registry"},
	{"oltp.Config.Obs", "d", "OLTP metrics registry"},
	{"lsm.DB.Count", "f", "Fig 4.3 query interface"},
	{"lsm.DB.Delete", "f", "Fig 4.3 query interface"},
	{"fst.Iterator.First", "f", "FST iterator move"},
	{"fst.Iterator.AtPrefixKey", "f", "FST iterator state (a stored key that prefixes others)"},
}

// TestDeadAPI is the dead-API census: it type-checks every non-test file of
// the module, with the root façade and the benchmark module in bench/ as
// callers only, and fails on any declaration that no non-test file
// references and that the allowlist does not name. Delete what it reports
// (then run it again: a deletion can leave its callees dead), or add an
// allowlist entry in one of its classes.
func TestDeadAPI(t *testing.T) {
	findings, err := deadAPI(".", "mets", []string{".", "bench"})
	if err != nil {
		t.Fatal(err)
	}
	classes := "abcdf"
	used := make([]bool, len(deadAPIAllow))
	for _, f := range findings {
		allowed := false
		for i, a := range deadAPIAllow {
			if f == a.id || strings.HasSuffix(a.id, "/") && strings.HasPrefix(f, strings.TrimSuffix(a.id, "/")+".") {
				allowed, used[i] = true, true
			}
		}
		if !allowed {
			t.Errorf("%s: no non-test file references it; delete it or allowlist it", f)
		}
	}
	for i, a := range deadAPIAllow {
		if len(a.class) != 1 || !strings.Contains(classes, a.class) {
			t.Errorf("allowlist %s: class %q is not one of %s", a.id, a.class, classes)
		}
		if !used[i] {
			t.Errorf("allowlist %s: matches no finding; remove the entry", a.id)
		}
	}
}

// TestDeadAPICatchesPlants runs the census over testdata/deadapi, a small
// module with a planted test-only export, a Config field only its test sets,
// and methods reached only through interfaces (a repo interface, error,
// fmt.Stringer, encoding.BinaryMarshaler) which must not be reported.
func TestDeadAPICatchesPlants(t *testing.T) {
	got, err := deadAPI("testdata/deadapi", "plant", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Config.TestOnly", "lib.Planted", "lib.Shape.Perimeter", "lib.helper"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("findings %q, want %q", got, want)
	}
}

// deadAPI type-checks every package under root (module path module) from
// its non-test files and returns, sorted, the declarations nothing outside
// a _test.go file reaches: exported funcs, methods, types, consts and vars;
// unexported funcs and methods; and the exported fields of a *Config or
// *Options struct that no non-test file sets. The packages in the
// callerOnly directories (root-relative) count as callers and are not
// themselves reported. Names
// are "pkg.Name", "pkg.Type.Method" or "pkg.Type.Field", pkg being the
// import path without the module and internal/ prefixes.
func deadAPI(root, module string, callerOnly []string) ([]string, error) {
	// The source importer reads the standard library with the default build
	// context; without cgo, net and os/user type-check from pure Go files.
	build.Default.CgoEnabled = false
	c := &census{
		root: root, module: module,
		fset: token.NewFileSet(),
		pkgs: map[string]*censusPkg{},
		used: map[types.Object]bool{},
		set:  map[types.Object]bool{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)

	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d)
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p, err := c.load(path)
		if err != nil {
			return nil, err
		}
		if p != nil {
			p.callerOnly = slices.Contains(callerOnly, rel)
		}
	}
	for _, p := range c.pkgs {
		if p != nil {
			c.collectUses(p)
		}
	}
	for _, it := range c.stdInterfaces() {
		c.reach = append(c.reach, ifaceMethod{it, ""})
	}

	var out []string
	for _, p := range c.pkgs {
		if p != nil && !p.callerOnly {
			out = append(out, c.findings(p)...)
		}
	}
	sort.Strings(out)
	return out, nil
}

type census struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*censusPkg
	used         map[types.Object]bool // referenced from a non-test file
	set          map[types.Object]bool // struct fields a non-test file sets
	reach        []ifaceMethod         // interface methods non-test code may call
}

// ifaceMethod is a method non-test code can call through interface it; an
// empty name stands for all of its methods.
type ifaceMethod struct {
	it   *types.Interface
	name string
}

type censusPkg struct {
	name       string // import path without the module and internal/ prefixes
	pkg        *types.Package
	files      []*ast.File
	info       *types.Info
	callerOnly bool
}

func (c *census) Import(path string) (*types.Package, error) {
	if path == c.module || strings.HasPrefix(path, c.module+"/") {
		p, err := c.load(path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, os.ErrNotExist
		}
		return p.pkg, nil
	}
	return c.std.Import(path)
}

// load parses and type-checks the non-test files of the package at path
// once; it returns nil for a directory without any.
func (c *census) load(path string) (*censusPkg, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(c.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, c.module), "/")))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		c.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{Importer: c, Error: func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}}
	tp, _ := conf.Check(path, c.fset, files, info)
	if firstErr != nil {
		return nil, firstErr
	}
	name := strings.TrimPrefix(strings.TrimPrefix(path, c.module+"/"), "internal/")
	p := &censusPkg{name: name, pkg: tp, files: files, info: info}
	c.pkgs[path] = p
	return p, nil
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// collectUses records what p's files reference and which struct fields they
// set. A declaration's references to itself (recursion, a self-referential
// type) and a method's receiver type do not count.
func (c *census) collectUses(p *censusPkg) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			self := map[types.Object]bool{}
			var recv *ast.FieldList
			switch d := decl.(type) {
			case *ast.FuncDecl:
				self[p.info.Defs[d.Name]] = true
				recv = d.Recv
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						self[p.info.Defs[ts.Name]] = true
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FieldList:
					if n == recv {
						return false
					}
				case *ast.Ident:
					if o := p.info.Uses[n]; o != nil && !self[o] {
						c.use(origin(o))
					}
				case *ast.CompositeLit:
					c.setLiteral(p, n)
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						c.setField(p, l)
					}
				case *ast.IncDecStmt:
					c.setField(p, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						c.setField(p, n.X)
					}
				}
				return true
			})
		}
	}
}

// use marks o referenced. Naming an interface type, or calling a function
// that takes one, makes all its methods reachable in its implementations;
// calling an interface method makes that method reachable.
func (c *census) use(o types.Object) {
	c.used[o] = true
	if tn, ok := o.(*types.TypeName); ok {
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			c.reach = append(c.reach, ifaceMethod{it, ""})
		}
	}
	fn, ok := o.(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		if it, ok := r.Type().Underlying().(*types.Interface); ok {
			c.reach = append(c.reach, ifaceMethod{it, fn.Name()})
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if it, ok := sig.Params().At(i).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			c.reach = append(c.reach, ifaceMethod{it, ""})
		}
	}
}

func (c *census) setLiteral(p *censusPkg, lit *ast.CompositeLit) {
	st, ok := p.info.Types[lit].Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && p.info.Uses[id] != nil {
				c.set[origin(p.info.Uses[id])] = true
			}
		} else if i < st.NumFields() {
			c.set[origin(st.Field(i))] = true
		}
	}
}

func (c *census) setField(p *censusPkg, e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			c.set[origin(s.Obj())] = true
		}
	}
}

// stdInterfaces are the standard-library interfaces whose methods the
// runtime, fmt and encoding packages call on a value without a call that
// names them.
func (c *census) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, pn := range [][2]string{
		{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
		{"encoding", "BinaryMarshaler"}, {"encoding", "BinaryUnmarshaler"},
		{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
		{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	} {
		if p, err := c.std.Import(pn[0]); err == nil {
			out = append(out, p.Scope().Lookup(pn[1]).Type().Underlying().(*types.Interface))
		}
	}
	return out
}

// reachedViaInterface reports whether non-test code can call method name
// of named type t through an interface t implements.
func (c *census) reachedViaInterface(t types.Type, name string) bool {
	for _, r := range c.reach {
		if (r.name == name || r.name == "" && hasMethod(r.it, name)) &&
			(types.Implements(t, r.it) || types.Implements(types.NewPointer(t), r.it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func (c *census) findings(p *censusPkg) []string {
	var out []string
	scope := p.pkg.Scope()
	for _, n := range scope.Names() {
		o := scope.Lookup(n)
		switch o := o.(type) {
		case *types.Func:
			if n != "init" && n != "main" && !c.used[o] {
				out = append(out, p.name+"."+n)
			}
		case *types.Const, *types.Var:
			if o.Exported() && !c.used[o] {
				out = append(out, p.name+"."+n)
			}
		case *types.TypeName:
			if o.Exported() && !c.used[o] {
				out = append(out, p.name+"."+n)
			}
			named, ok := o.Type().(*types.Named)
			if !ok || o.IsAlias() {
				continue
			}
			out = append(out, c.memberFindings(p.name+"."+n, named)...)
		}
	}
	return out
}

func (c *census) memberFindings(prefix string, named *types.Named) []string {
	var out []string
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if !c.used[m] && !c.reachedViaInterface(named, m.Name()) {
			out = append(out, prefix+"."+m.Name())
		}
	}
	switch u := named.Underlying().(type) {
	case *types.Interface:
		for i := 0; i < u.NumExplicitMethods(); i++ {
			if m := u.ExplicitMethod(i); m.Exported() && !c.used[m] {
				out = append(out, prefix+"."+m.Name())
			}
		}
	case *types.Struct:
		name := named.Obj().Name()
		if !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
			break
		}
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() && !c.set[f] {
				out = append(out, prefix+"."+f.Name())
			}
		}
	}
	return out
}
