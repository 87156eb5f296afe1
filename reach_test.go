package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// notProduct are the package directories the reach guard does not report on:
// the paper's evaluation code and the simulation harness. Their files still
// count as callers. scripts/loc.sh draws the same line.
var notProduct = map[string]bool{
	"internal/figures":      true,
	"internal/ldms":         true,
	"internal/middleware":   true,
	"internal/workloads":    true,
	"internal/trace":        true,
	"internal/sim":          true,
	"internal/sim/scenario": true,
}

// reachAllowed are exported product names that no entry point reaches and
// that stay anyway, each with the reason. Every entry is reached by tests
// only: it is the backlog ROADMAP item 4 reads, not a place to park new code.
var reachAllowed = map[string]string{
	// Fault injection and determinism for tests in stream, score and sim/scenario.
	"internal/stream.NewChaos":        "seeded fault-injecting dialer/conn wrapper the chaos and batch tests drive",
	"internal/stream.Chaos":           "NewChaos's type",
	"internal/stream.ChaosConfig":     "NewChaos's configuration",
	"internal/stream.ChaosStats":      "what Chaos.Stats returns: tests skip when no fault was injected",
	"internal/stream.WithConnWrapper": "server-side hook Chaos.Wrap plugs into",
	"internal/stream.WithDialer":      "client-side hook Chaos.Dialer plugs into",
	"internal/stream.WithRand":        "seeded backoff jitter, so a retry schedule replays",
	"internal/stream.WithClock":       "virtual time for the redirect tests",

	// Functional options over stream.Options / aqe / core fields that only tests set.
	"internal/stream.WithBackoff":      "tests shorten Options.BackoffMin/Max through it",
	"internal/stream.WithDialTimeout":  "tests shorten Options.DialTimeout through it",
	"internal/stream.WithIOTimeout":    "tests shorten Options.IOTimeout through it",
	"internal/stream.WithMaxRedirects": "redirect-loop test bounds Options.MaxRedirects through it",
	"internal/stream.WithResumeMax":    "subscription tests bound Options.ResumeMax through it",
	"internal/stream.WithRetry":        "store-and-forward tests set Options.RetryMax through it",
	"internal/aqe.WithParallelism":     "plan tests pin the union fan-out width",
	"internal/core.WithController":     "core tests register a metric with its own interval controller",

	// The paper's Table 1 catalogue: each row has a hook and a unit test, not yet a caller.
	"internal/hooks.DeviceUsed":                 "used-bytes hook beside DeviceRemaining",
	"internal/hooks.DeviceMSCA":                 "Table 1 row 1 hook",
	"internal/hooks.DeviceInterference":         "Table 1 row 2 hook",
	"internal/hooks.NodeEnergyPerTransfer":      "Table 1 rows 11/14 hook",
	"internal/hooks.TierRemaining":              "Table 1 row 10 as one hook",
	"internal/hooks.DeviceLoad":                 "Table 1 row 13 hook",
	"internal/hooks.Counting":                   "poll-counting hook wrapper",
	"internal/insights.RankByHealth":            "Table 1 rows 5/7/8 ranking",
	"internal/insights.RankByRemainingCapacity": "Table 1 DPE use case",

	// Library surface kept whole.
	"internal/cluster.KB":                    "unit constant beside MB, GB, TB",
	"internal/cluster.Tiers":                 "enumerates the Tier constants",
	"internal/delphi.Normalize":              "allocating form of NormalizeInto the property tests and root benchmarks call",
	"internal/nn.Load":                       "reads what Sequential.Save writes",
	"internal/nn.SGD":                        "second Optimizer beside Adam; the nn tests train with both",
	"internal/nn.NewSGD":                     "SGD's constructor",
	"internal/obs.Default":                   "process-wide registry core.Config.Obs documents for embedders sharing one",
	"internal/telemetry.NewInsight":          "Insight constructor beside NewFact; archive and gateway tests build tuples with it",
	"internal/telemetry.NewPredictedInsight": "predicted form of NewInsight",
}

// reachDecl is one package-level name: where it is declared and what its
// declaration (and, for a type, its methods) mentions.
type reachDecl struct {
	dir, name string
	mentions  map[string]bool // keys as reachKey builds them
	root      bool
}

func reachKey(dir, name string) string { return dir + "." + name }

// TestExportedNamesAreReached fails when a product package exports a
// package-level name that nothing reachable from an entry point mentions.
// Entry points are the main packages (cmd/, examples/, bench/), the apollo
// facade and the api/v1 schema; a mention is followed through the
// declarations that make it, so a lane whose only users are each other is
// reported whole. Test files do not count as callers. Parsing only — no type
// check — so a local name that shadows a package-level one counts as a
// mention: the guard misses some dead names and never invents one.
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

	decls := map[string]*reachDecl{}
	for dir, parsed := range files {
		for _, f := range parsed {
			isMain := f.Name.Name == "main"
			facade := dir == "apollo" || dir == "api/v1"
			imports := map[string]string{} // local name -> directory, module imports only
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				target, ok := strings.CutPrefix(ip, "repro/")
				if !ok {
					continue
				}
				local := path.Base(target)
				if imported := files[target]; len(imported) > 0 {
					local = imported[0].Name.Name
				}
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = target
			}
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
				d.root = d.root || isMain || notProduct[dir] || owner == "init" || facade && ast.IsExported(owner)
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

	reached := map[string]bool{}
	var queue []string
	visit := func(k string) {
		if decls[k] != nil && !reached[k] {
			reached[k] = true
			queue = append(queue, k)
		}
	}
	for k, d := range decls {
		if d.root {
			visit(k)
		}
	}
	for k, reason := range reachAllowed {
		if decls[k] == nil {
			t.Errorf("allow-list names %s (%s), which is not declared", k, reason)
		}
		visit(k)
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for m := range decls[k].mentions {
			visit(m)
		}
	}

	var dead []string
	for k, d := range decls {
		product := strings.HasPrefix(d.dir, "internal/") && !notProduct[d.dir]
		if product && ast.IsExported(d.name) && !reached[k] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is exported and no entry point reaches it: delete it, or add it to reachAllowed with the reason it stays", k)
	}
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
