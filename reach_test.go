package adwars

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// keptOnPurpose names the product declarations nothing but tests reaches
// that stay anyway, each for its reason. A name is "pkg.Name",
// "pkg.Type.Method", or a package path, which keeps the whole package.
var keptOnPurpose = map[string]string{
	"adwars/internal/abp.List.MatchingHTTPRulesLinear":          "the all-matches reference oracle of the differential tests",
	"adwars/internal/abp.Rule.MatchRequest":                     "one rule against one request: the matcher's test entry point",
	"adwars/internal/abp.NewListAttached":                       "one list attached to a region outside a snapshot file (walkRegion, then attach, as the loader runs them apart): what the filing and guard tests drive",
	"adwars/internal/abp.MarshalListsSnapshot":                  "the snapshot sealed into memory: the bytes SaveListsSnapshot streams into its file, which the snapshot tests and fuzz seeds read without one",
	"adwars/internal/abp.KindInvalid":                           "the zero Kind, which a line that does not parse carries; tests name it",
	"adwars/internal/jsast.Tokenize":                            "the lexer's test entry point, held to the reference lexer",
	"adwars/internal/ml.TrainSVM":                               "the base learner alone, as the SVM tests train it",
	"adwars/internal/wayback.FaultConfig.MaxFailuresPerRequest": "the input of the invariant that the crawl's retry budget exceeds it (crawler.TestRetryBudgetOutlastsFaultModel)",
	"adwars/internal/scriptcorpus":                              "the pinned script corpus the jsast and features oracle tests share",
	"adwars/internal/antiadblock.CanRunAdsScript":               "the bait script of the pinned corpus and the Table 3 positives",
}

// TestProductCodeIsReached is the ratchet against product code only tests
// call. It type-checks every non-test file of the module, and bench/ with
// its tests, and walks what is reachable from the roots: every main and
// init, every package-level var (its initializer runs), the exported API of
// package adwars, and every name bench/ uses. A live named type keeps each
// of its methods whose name some interface declares, since a call through
// the interface names no method. Any other declaration left unreached
// fails, unless keptOnPurpose names it; a kept name that became reachable
// fails too, so the list stays exact.
func TestProductCodeIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := goList(root, "-deps", "-export", "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchPkgs, err := goList(filepath.Join(root, "bench"), "-deps", "-test", "-export", "./...")
	if err != nil {
		t.Fatal(err)
	}
	r := newReach()
	for _, p := range append(mod, benchPkgs...) {
		if p.Module == nil && p.Export != "" {
			r.exports[p.ImportPath] = p.Export
		}
	}
	for _, p := range mod {
		if p.Module == nil || p.Module.Path != "adwars" {
			continue
		}
		if err := r.check(p.ImportPath, p.Dir, p.GoFiles, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range benchPkgs {
		// The test variant of bench/'s main package: its files plus its tests.
		if p.ForTest == "adwars/bench" && p.Name == "main" {
			if err := r.check(p.ImportPath, p.Dir, p.GoFiles, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.interfaceNames()
	r.walk()

	var dead []string
	kept := map[string]bool{}
	for _, d := range r.decls {
		if r.live[d.obj] {
			continue
		}
		if why := keptBy(d); why != "" {
			kept[why] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s, %d lines)", d.name, d.pos, d.lines))
	}
	slices.Sort(dead)
	for _, name := range dead {
		t.Errorf("only tests reach %s: delete it, move it into a _test.go file, or name it in keptOnPurpose", name)
	}
	for name := range keptOnPurpose {
		if !kept[name] {
			t.Errorf("keptOnPurpose names %s, which is reachable or gone: take it off the list", name)
		}
	}
}

// listedPackage is the part of `go list -json` the analysis reads.
type listedPackage struct {
	ImportPath, Name, Dir, Export, ForTest string
	GoFiles                                []string
	Module                                 *struct{ Path string }
}

func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// decl is one package-level declaration of the module, or one method.
type decl struct {
	obj   types.Object
	name  string
	pos   string
	lines int
}

type reach struct {
	fset    *token.FileSet
	exports map[string]string // standard-library import path → export data
	std     types.Importer
	module  map[string]*types.Package

	decls  []decl
	uses   map[types.Object][]types.Object // what each declaration's span names
	roots  []types.Object
	ifaces map[string]bool // every method name some interface declares
	live   map[types.Object]bool
}

func newReach() *reach {
	r := &reach{
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		module:  map[string]*types.Package{},
		uses:    map[types.Object][]types.Object{},
		// error, and what package errors asserts through interfaces it
		// declares inside its functions.
		ifaces: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true},
		live:   map[types.Object]bool{},
	}
	r.std = importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := r.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	return r
}

func (r *reach) Import(path string) (*types.Package, error) {
	if p, ok := r.module[path]; ok {
		return p, nil
	}
	return r.std.Import(path)
}

// check type-checks one package from source. A module package's
// declarations join the graph; bench/'s uses become roots.
func (r *reach) check(path, dir string, files []string, inModule bool) error {
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(r.fset, filepath.Join(dir, f), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		parsed = append(parsed, af)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: r}
	pkg, err := conf.Check(path, r.fset, parsed, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", path, err)
	}
	if !inModule {
		for _, obj := range info.Uses {
			if obj.Pkg() != nil && r.module[obj.Pkg().Path()] == obj.Pkg() {
				r.roots = append(r.roots, origin(obj))
			}
		}
		return nil
	}
	r.module[path] = pkg
	for _, f := range parsed {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				r.addInterface(info.Types[it].Type)
			}
			return true
		})
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				r.declare(obj, d, d.Doc, info)
				name := d.Name.Name
				switch {
				case d.Recv == nil && (name == "init" || name == "main" && pkg.Name() == "main"):
					r.roots = append(r.roots, obj)
				case path == "adwars" && ast.IsExported(name) && (d.Recv == nil || exportedRecv(obj)):
					r.roots = append(r.roots, obj)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					doc := d.Doc
					if len(d.Specs) > 1 {
						doc = nil
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[s.Name]
						r.declare(obj, s, doc, info)
						if path == "adwars" && s.Name.IsExported() {
							r.roots = append(r.roots, obj)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							obj := info.Defs[n]
							r.declare(obj, s, doc, info)
							if d.Tok == token.VAR || path == "adwars" && n.IsExported() {
								r.roots = append(r.roots, obj)
							}
							if named, ok := obj.Type().(*types.Named); ok && d.Tok == token.CONST {
								// An iota constant repeats its group's type
								// without naming it.
								r.uses[obj] = append(r.uses[obj], named.Obj())
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// declare records obj's declaration span and the objects it names.
func (r *reach) declare(obj types.Object, node ast.Node, doc *ast.CommentGroup, info *types.Info) {
	start := node.Pos()
	if doc != nil {
		start = doc.Pos()
	}
	from, to := r.fset.Position(start), r.fset.Position(node.End())
	name := obj.Pkg().Path() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = obj.Pkg().Path() + "." + recvName(recv.Type()) + "." + obj.Name()
		}
	}
	if obj.Name() != "_" && obj.Name() != "init" {
		r.decls = append(r.decls, decl{obj: obj, name: name,
			pos: fmt.Sprintf("%s:%d", filepath.Base(from.Filename), from.Line), lines: to.Line - from.Line + 1})
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if u, ok := info.Uses[id]; ok && u.Pkg() != nil {
				r.uses[obj] = append(r.uses[obj], origin(u))
			}
		}
		return true
	})
}

// interfaceNames adds the method names of every interface the standard
// library packages the module builds on declare at package level.
func (r *reach) interfaceNames() {
	for path := range r.exports {
		p, err := r.std.Import(path)
		if err != nil {
			continue
		}
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				r.addInterface(tn.Type())
			}
		}
	}
}

func (r *reach) addInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			r.ifaces[it.Method(i).Name()] = true
		}
	}
}

// walk marks everything reachable from the roots.
func (r *reach) walk() {
	work := slices.Clone(r.roots)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if r.live[obj] {
			continue
		}
		r.live[obj] = true
		work = append(work, r.uses[obj]...)
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named := namedOf(recv.Type()); named != nil {
					work = append(work, named.Obj())
				}
			}
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named := namedOf(tn.Type())
		if named == nil {
			continue
		}
		if tn.IsAlias() {
			work = append(work, named.Obj())
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); r.ifaces[m.Name()] {
				work = append(work, m)
			}
		}
	}
}

// keptBy returns the keptOnPurpose entry covering d, or "".
func keptBy(d decl) string {
	for _, name := range []string{d.name, d.obj.Pkg().Path()} {
		if _, ok := keptOnPurpose[name]; ok {
			return name
		}
	}
	return ""
}

// origin maps an instantiated function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

func recvName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}

func exportedRecv(obj types.Object) bool {
	n := namedOf(obj.Type().(*types.Signature).Recv().Type())
	return n != nil && n.Obj().Exported()
}
