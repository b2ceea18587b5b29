package socrm

import (
	"fmt"
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

// surfaceAllowlist names exported functions, methods and types in internal/
// that nothing in the repo references, yet must stay, each with the reason.
// Keep it short: a name belongs here only when a caller exists that the
// type checker cannot see. An entry that becomes reached, or whose
// declaration is deleted, fails the test so the list cannot go stale.
var surfaceAllowlist = map[string]string{
	"cluster.clientTimeoutError.Is": "errors.Is calls it through an anonymous interface{ Is(error) bool }",
}

// TestExportedSurfaceIsReached fails on every exported function, method or
// type in internal/ that no code outside its own package's tests
// references. Consumers are every non-test file in the repo (cmd/,
// examples/, internal/ and the separate perfbench module) plus the test
// files of other packages. A method also counts as reached when its
// receiver implements an interface that declares it: one declared in the
// repo, or a standard one the repo hands values to (error, fmt.Stringer,
// json.Marshaler/Unmarshaler, io.Reader, http.Handler, http.RoundTripper,
// net.Error).
//
// Resolve a finding by deleting it, by moving it into the _test.go file
// that uses it, or, when it has a caller the type checker cannot see, by
// adding it to surfaceAllowlist with the reason.
func TestExportedSurfaceIsReached(t *testing.T) {
	l, err := loadRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := l.unreached()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.name] = true
		if _, ok := surfaceAllowlist[f.name]; !ok {
			bad = append(bad, fmt.Sprintf("%s:%d %s", f.file, f.line, f.name))
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d exported names in internal/ are referenced only by their own package's tests, or not at all; delete them, move them into the _test.go file that uses them, or allowlist them with a reason:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	for name := range surfaceAllowlist {
		if !seen[name] {
			t.Errorf("surfaceAllowlist entry %q is stale: it is reached or no longer declared; remove the entry", name)
		}
	}
}

// repoModule is the module path of the repo root. Each directory's import
// path is repoModule + "/" + its path, which also holds for the separate
// perfbench module (socrm/perfbench).
const repoModule = "socrm"

// repoPkg is one directory's Go files, split the way `go test` builds them.
type repoPkg struct {
	files, tests, xtests []*ast.File // non-test, in-package test, external test
}

// repoLoader type-checks the repo's packages from source and records every
// object any checked file refers to. Packages outside the repo come from
// export data through go/importer.
type repoLoader struct {
	fset     *token.FileSet
	pkgs     map[string]*repoPkg
	checked  map[string]*types.Package // non-test builds, keyed by import path
	std      types.Importer
	used     map[types.Object]bool
	typeErrs []error
	paths    []string // import paths of the repo's packages, sorted
}

type finding struct {
	file string
	line int
	name string
}

func loadRepo(root string) (*repoLoader, error) {
	l := &repoLoader{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*repoPkg{},
		checked: map[string]*types.Package{},
		used:    map[types.Object]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return l.parseDir(root, path)
	})
	if err != nil {
		return nil, err
	}
	for path := range l.pkgs {
		l.paths = append(l.paths, path)
	}
	sort.Strings(l.paths)
	for _, path := range l.paths {
		l.checkTests(path)
	}
	if len(l.typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking the repo: %v (and %d more)", l.typeErrs[0], len(l.typeErrs)-1)
	}
	return l, nil
}

// parseDir parses the Go files of one directory that the default build
// context selects.
func (l *repoLoader) parseDir(root, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	path := repoModule
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	p := &repoPkg{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
	}
	if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
		l.pkgs[path] = p
	}
	return nil
}

// Import returns the non-test build of a repo package, type-checking it on
// first use, and defers to export data for every other package.
func (l *repoLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	pkg := l.check(path, p.files, l)
	l.checked[path] = pkg
	return pkg, nil
}

// checkTests type-checks a package's test builds so that the references
// its tests make to other packages are recorded. The in-package test build
// re-checks the package's own files, so its objects are copies that never
// match a declaration under test: a package's tests do not reach its own
// surface.
func (l *repoLoader) checkTests(path string) {
	p := l.pkgs[path]
	_, _ = l.Import(path) // never fails for a repo package; type errors land in typeErrs
	if len(p.tests)+len(p.xtests) == 0 {
		return
	}
	variant := l.check(path, append(append([]*ast.File{}, p.files...), p.tests...), l)
	if len(p.xtests) > 0 {
		l.check(path+"_test", p.xtests, importerFunc(func(imp string) (*types.Package, error) {
			if imp == path {
				return variant, nil
			}
			return l.Import(imp)
		}))
	}
}

func (l *repoLoader) check(path string, files []*ast.File, imp types.Importer) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp, Error: func(err error) { l.typeErrs = append(l.typeErrs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, info)
	for _, obj := range info.Uses {
		l.used[origin(obj)] = true
	}
	return pkg
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces returns the interfaces whose methods count as called: every
// interface type declared at package level in the repo, and the standard
// ones the repo passes its values to.
func (l *repoLoader) interfaces() ([]*types.Interface, error) {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, path := range l.paths {
		pkg := l.checked[path]
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
	}
	for _, ref := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler",
		"io.Reader", "net/http.Handler", "net/http.RoundTripper", "net.Error"} {
		i := strings.LastIndex(ref, ".")
		pkg, err := l.std.Import(ref[:i])
		if err != nil {
			return nil, err
		}
		out = append(out, pkg.Scope().Lookup(ref[i+1:]).Type().Underlying().(*types.Interface))
	}
	return out, nil
}

// unreached lists, in file order, the exported functions, methods and types
// of the non-test builds under internal/ that nothing recorded refers to.
func (l *repoLoader) unreached() ([]finding, error) {
	ifaces, err := l.interfaces()
	if err != nil {
		return nil, err
	}
	var out []finding
	report := func(obj types.Object, name string) {
		if l.used[obj] {
			return
		}
		pos := l.fset.Position(obj.Pos())
		file, err := filepath.Rel(".", pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		out = append(out, finding{file: filepath.ToSlash(file), line: pos.Line, name: name})
	}
	for _, path := range l.paths {
		pkg := l.checked[path]
		if !strings.HasPrefix(path, repoModule+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() {
					report(obj, pkg.Name()+"."+name)
				}
			case *types.TypeName:
				if obj.Exported() {
					report(obj, pkg.Name()+"."+name)
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !implementsAny(named, m.Name(), ifaces) {
						report(m, pkg.Name()+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// implementsAny reports whether T or *T implements an interface among
// ifaces that declares a method called method.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				declares = true
				break
			}
		}
		if declares && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
