package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// notProduct are the package directories the reach guard does not report on:
// the paper's evaluation code (the Fig. 11 LSTM baseline among it) and the
// simulation harness. Their files still count as callers. scripts/loc.sh
// draws the same line.
var notProduct = map[string]bool{
	"internal/figures":      true,
	"internal/nn/baseline":  true,
	"internal/ldms":         true,
	"internal/middleware":   true,
	"internal/workloads":    true,
	"internal/trace":        true,
	"internal/sim":          true,
	"internal/sim/scenario": true,
}

// reachAllowed are exported product names and methods that no entry point
// reaches and that stay anyway, each with the reason. An entry that an entry
// point reaches after all is stale, and the guard reports it. It is not a place
// to park new code. A seam a package's own tests need is an unexported field
// they set, as stream's fault-injecting dialer, clock and timing, aqe's
// workers and cache and the gateway's mux are, not an entry here.
var reachAllowed = map[string]string{
	"internal/core.Service.Bus": "the busSwitch row of stream's TestBusContract runs the Bus contract over it, and an external test package can reach the switch no other way",
}

// reachDecl is one package-level name: where it is declared and what its
// declaration (and, for a type, its methods) mentions.
type reachDecl struct {
	dir, name string
	mentions  map[string]bool // keys as reachKey builds them
	root      bool
}

// reachMethod is one exported method of a product type.
type reachMethod struct{ dir, recv, name string }

func (m reachMethod) key() string { return reachKey(m.dir, m.recv+"."+m.name) }

func reachKey(dir, name string) string { return dir + "." + name }

// stdlibContracts are the method names the standard library calls through an
// interface or by reflection (error, fmt, errors, encoding, net/http, io): a
// method so named is reached without any module file selecting it.
var stdlibContracts = map[string]bool{
	"Error": true, "String": true, "Is": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
}

// TestExportedNamesAreReached fails when a product package exports a
// package-level name that nothing reachable from an entry point mentions, or
// an exported method that no non-test file calls. See unreached for the rules.
func TestExportedNamesAreReached(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by directory
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dead, undeclared, stale := unreached(files, reachAllowed)
	for _, k := range undeclared {
		t.Errorf("allow-list names %s (%s), which is not declared", k, reachAllowed[k])
	}
	for _, k := range stale {
		t.Errorf("allow-list names %s (%s), which an entry point reaches: drop the entry", k, reachAllowed[k])
	}
	for _, k := range dead {
		t.Errorf("%s is exported and no entry point reaches it: delete it, or add it to reachAllowed with the reason it stays", k)
	}
}

// unreached applies the guard to a parsed tree (non-test files by directory)
// and returns the exported product names and methods nothing reaches, the
// allow-list keys that name nothing declared, and the allow-list keys the entry
// points reach without the allow-list's help. Parsing only — no type check.
//
// A package-level name is reached when a declaration reachable from an entry
// point mentions it. Entry points are the main packages (cmd/, examples/,
// bench/), the api/v1 schema (the frozen wire contract) and the evaluation and
// harness packages; a mention is followed through the declarations that make it, so a
// lane whose only users are each other is reported whole. A local name that
// shadows a package-level one counts as a mention: the rule misses some dead
// names and never invents one.
//
// An exported method T.M of a reached type is reached when any file calls
// x.M(...) or uses x.M as a value, when a module interface declares M, or when
// M is one of stdlibContracts. By name only, so a same-named method anywhere
// hides M (a typed go/types sweep finds those). Two readings keep field reads
// and package functions from hiding methods, and are the two ways the rule
// could report a method in use: a bare x.M whose name is also a struct field's
// is taken for the field, and x.M with x one of the file's import names for
// pkg.M.
func unreached(files map[string][]*ast.File, allowed map[string]string) (dead, undeclared, stale []string) {
	decls := map[string]*reachDecl{}
	var methods []reachMethod
	called := map[string]bool{}  // M of every x.M(...)
	valued := map[string]bool{}  // M of every other x.M
	fields := map[string]bool{}  // struct field names
	ifaceMs := map[string]bool{} // interface method names
	for dir, parsed := range files {
		for _, f := range parsed {
			isMain := f.Name.Name == "main"
			contract := dir == "api/v1"
			imports := map[string]string{} // local name -> directory, module imports only
			pkgNames := map[string]bool{}  // local names of every import
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				local := path.Base(ip)
				target, inModule := strings.CutPrefix(ip, "repro/")
				if imported := files[target]; inModule && len(imported) > 0 {
					local = imported[0].Name.Name
				}
				if im.Name != nil {
					local = im.Name.Name
				}
				pkgNames[local] = true
				if inModule {
					imports[local] = target
				}
			}
			collectSelections(f, pkgNames, called, valued, fields, ifaceMs)
			add := func(owner string, nodes ...ast.Node) {
				if owner == "_" {
					return // a compile-time assertion uses nothing
				}
				k := reachKey(dir, owner)
				d := decls[k]
				if d == nil {
					d = &reachDecl{dir: dir, name: owner, mentions: map[string]bool{}}
					decls[k] = d
				}
				d.root = d.root || isMain || notProduct[dir] || owner == "init" || contract && ast.IsExported(owner)
				for _, n := range nodes {
					collectMentions(n, dir, owner, imports, d.mentions)
				}
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					owner := decl.Name.Name
					if decl.Recv != nil && len(decl.Recv.List) == 1 {
						owner = receiverName(decl.Recv.List[0].Type)
						if ast.IsExported(decl.Name.Name) {
							methods = append(methods, reachMethod{dir, owner, decl.Name.Name})
						}
					}
					if decl.Body != nil {
						add(owner, decl.Type, decl.Body)
					} else {
						add(owner, decl.Type)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name.Name, spec)
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								add(n.Name, spec)
							}
						}
					}
				}
			}
		}
	}

	isMethod := map[string]bool{}
	for _, m := range methods {
		isMethod[m.key()] = true
	}
	reached := map[string]bool{}
	var queue []string
	visit := func(k string) {
		if decls[k] != nil && !reached[k] {
			reached[k] = true
			queue = append(queue, k)
		}
	}
	follow := func() {
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			for m := range decls[k].mentions {
				visit(m)
			}
		}
	}
	for k, d := range decls {
		if d.root {
			visit(k)
		}
	}
	follow()
	// What the entry points reach on their own: an allow-list entry in it is
	// stale. Then the entries are reached too, and so is what they mention.
	fromRoots := maps.Clone(reached)
	for k := range allowed {
		if decls[k] == nil && !isMethod[k] {
			undeclared = append(undeclared, k)
		}
		if fromRoots[k] {
			stale = append(stale, k)
		}
		visit(k)
	}
	follow()

	isProduct := func(dir string) bool { return strings.HasPrefix(dir, "internal/") && !notProduct[dir] }
	for k, d := range decls {
		if isProduct(d.dir) && ast.IsExported(d.name) && !reached[k] {
			dead = append(dead, k)
		}
	}
	for _, m := range methods {
		recv := reachKey(m.dir, m.recv)
		if !isProduct(m.dir) || !reached[recv] {
			continue
		}
		byName := called[m.name] || valued[m.name] && !fields[m.name] || ifaceMs[m.name] || stdlibContracts[m.name]
		if _, ok := allowed[m.key()]; ok {
			if byName && fromRoots[recv] {
				stale = append(stale, m.key())
			}
			continue
		}
		if !byName {
			dead = append(dead, m.key())
		}
	}
	sort.Strings(dead)
	sort.Strings(undeclared)
	sort.Strings(stale)
	return dead, undeclared, stale
}

// collectSelections records, for one file, the names selected from a value —
// called (x.M(...)) or not (x.M) — and the struct field and interface method
// names it declares. pkg.Name through one of the file's imports selects
// nothing from a value.
func collectSelections(f *ast.File, pkgNames, called, valued, fields, ifaceMs map[string]bool) {
	fromValue := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		if x, ok := sel.X.(*ast.Ident); ok && pkgNames[x.Name] {
			return "", false
		}
		return sel.Sel.Name, true
	}
	inCall := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if m, ok := fromValue(n.Fun); ok {
				called[m] = true
				inCall[n.Fun.(*ast.SelectorExpr)] = true
			}
		case *ast.SelectorExpr:
			if m, ok := fromValue(n); ok && !inCall[n] {
				valued[m] = true
			}
		case *ast.StructType:
			for _, fl := range n.Fields.List {
				for _, name := range fl.Names {
					fields[name.Name] = true
				}
			}
		case *ast.InterfaceType:
			for _, fl := range n.Methods.List {
				for _, name := range fl.Names {
					ifaceMs[name.Name] = true
				}
			}
		}
		return true
	})
}

// receiverName is the type name a method's receiver expression declares it on.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "_"
		}
	}
}

// collectMentions records every package-level name node may refer to: pkg.Name
// through one of the file's module imports, and any bare identifier as a name
// of the file's own package. Names a declaration introduces — its own, its
// fields', its parameters' — are not mentions.
func collectMentions(node ast.Node, dir, owner string, imports map[string]string, out map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if target, ok := imports[x.Name]; ok {
					out[reachKey(target, n.Sel.Name)] = true
					return false
				}
			}
			collectMentions(n.X, dir, owner, imports, out) // a field or method: only the operand can name a declaration
			return false
		case *ast.Field:
			if n.Type != nil {
				collectMentions(n.Type, dir, owner, imports, out)
			}
			return false
		case *ast.Ident:
			if n.Name != owner {
				out[reachKey(dir, n.Name)] = true
			}
		}
		return true
	})
}

// TestReachGuardGuards runs the guard over a small in-memory tree: of a
// called method, an uncalled one, one reached only through a module interface
// and a String, it reports exactly the uncalled one; an allow-list entry
// naming a method nobody declares is reported as such, as names already are;
// and of two allowed functions, the one main calls is reported stale and the
// one only the allow-list reaches is not.
func TestReachGuardGuards(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for name, src := range map[string]string{
		"cmd/fix/main.go": `package main

import "repro/internal/fix"

func main() {
	v := fix.New()
	v.Called()
	var _ fix.Doer = v
}`,
		"internal/fix/fix.go": `package fix

type T struct{ Field int }

type Doer interface{ Do() }

func New() *T { return &T{} }

func Seam() {}

func (t *T) Called()        {}
func (t *T) Uncalled()      {}
func (t *T) Do()            {}
func (t *T) String() string { return "" }`,
	} {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path.Dir(name)] = append(files[path.Dir(name)], f)
	}
	allowed := map[string]string{
		"internal/fix.T.Gone": "a method that is not declared",
		"internal/fix.New":    "a function main calls",
		"internal/fix.Seam":   "a function only tests call",
	}
	dead, undeclared, stale := unreached(files, allowed)
	if want := []string{"internal/fix.T.Uncalled"}; !slices.Equal(dead, want) {
		t.Errorf("guard reports %v, want %v", dead, want)
	}
	if want := []string{"internal/fix.T.Gone"}; !slices.Equal(undeclared, want) {
		t.Errorf("guard reports %v as allow-listed but not declared, want %v", undeclared, want)
	}
	if want := []string{"internal/fix.New"}; !slices.Equal(stale, want) {
		t.Errorf("guard reports %v as allow-listed but reached, want %v", stale, want)
	}
}
