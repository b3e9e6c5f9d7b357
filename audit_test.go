package samrdlb

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// auditAllow lists the internal/ declarations that stay although no
// binary, example or benchmark reaches them, and the fields that stay
// although nothing reads them by selector, each with its reason. Keys
// are a declaration as rule 1 prints it ("geom.BoxFromShape",
// "geom.BoxList.ContainsBox"), a bare method name (methods the standard
// library calls through an interface it does not export), a field or
// type as rule 3 prints it ("supervise.Report.Fingerprint",
// "metrics.Result"), or a file or directory exempting everything in it.
var auditAllow = map[string]string{
	"Unwrap": "errors.Is/As walk the chain through it; nothing names it",

	"geom.BoxFromShape":            "the box constructor of ~70 fixtures in nine packages' tests, which cannot see a geom _test.go file",
	"geom.BoxList.Contains":        "the cell-coverage oracle of engine, amr and cluster tests",
	"geom.BoxList.ContainsBox":     "the box-coverage oracle of engine and amr tests (the nesting reference among them)",
	"cluster.(*FlagField).CountIn": "the flag reader of workload's and amr's flagging tests: production reads flags only inside cluster",
	"internal/golden":              "test infrastructure: the golden-file helper of samrsim's, figures', exp's and every example's tests",

	"internal/scenario/shrink.go": "test infrastructure: the scenario shrinker runs only when a soak fails",
	"scenario.FromBytes":          "test infrastructure: the decoder FuzzScenario feeds",
	"scenario.ReplayCommand":      "test infrastructure: prints the repro line of a failing scenario",

	"metrics.Result":               "Identity() renders every field with %+v, and that string is what decides two runs are one run",
	"supervise.Report.Fingerprint": "the agreed fingerprint the supervised chaos pins compare with the in-process run's",
}

// parseTree parses every .go file under each root for which keep
// returns true. Like the go command it skips directories whose names
// begin with a dot: .bench_build/ holds exported trees of other commits.
func parseTree(fset *token.FileSet, keep func(path string) bool, roots ...string) ([]*ast.File, error) {
	var files []*ast.File
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || !keep(path) {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func notTest(path string) bool { return !strings.HasSuffix(path, "_test.go") }

// counted reports whether the audit counts a file's uses: every non-test
// file, and bench/'s tests while bench/ is frozen.
func counted(path string) bool {
	return notTest(path) || strings.HasPrefix(filepath.ToSlash(path), "bench/")
}

// typedTree is Go source type-checked as one tree: each import path's
// files are a package, the tree's own imports resolve to its packages,
// and the standard library comes from the toolchain's export data.
type typedTree struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info // shared by every package: objects are unique across the tree
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path → its parsed files
}

// newTypedTree type-checks files, keyed by import path.
func newTypedTree(fset *token.FileSet, files map[string][]*ast.File) (*typedTree, error) {
	std, err := stdImporter(fset, files)
	if err != nil {
		return nil, err
	}
	tt := &typedTree{
		fset: fset,
		std:  std,
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
		pkgs:  map[string]*types.Package{},
		files: files,
	}
	for path := range files {
		if _, err := tt.Import(path); err != nil {
			return nil, err
		}
	}
	return tt, nil
}

// stdImporter imports the standard-library packages files name from the
// export data of one `go list -export` run, where importer.Default runs
// the go command once per package.
func stdImporter(fset *token.FileSet, files map[string][]*ast.File) (types.Importer, error) {
	var paths []string
	for _, fs := range files {
		for _, f := range fs {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); files[path] == nil && !slices.Contains(paths, path) {
					paths = append(paths, path)
				}
			}
		}
	}
	export := map[string]string{}
	if len(paths) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, paths...)...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "=")
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) }), nil
}

// Import implements types.Importer: the tree's own packages from
// source, memoised, everything else from the standard library.
func (tt *typedTree) Import(path string) (*types.Package, error) {
	if p, ok := tt.pkgs[path]; ok {
		return p, nil
	}
	files, ok := tt.files[path]
	if !ok {
		return tt.std.Import(path)
	}
	conf := types.Config{Importer: tt}
	p, err := conf.Check(path, tt.fset, files, tt.info)
	tt.pkgs[path] = p
	return p, err
}

var module struct {
	once sync.Once
	tree *typedTree
	err  error
}

// loadTree returns the module type-checked from source, once for every
// audit test of the binary: each directory of non-test Go files under
// cmd/, examples/, internal/ and bench/ is a package whose import path
// is "samrdlb/" + the directory (bench/'s nested module is
// samrdlb/bench). bench/'s package includes its tests, which rule 1
// counts as roots while bench/ is frozen.
func loadTree(t *testing.T) *typedTree {
	t.Helper()
	module.once.Do(func() {
		fset := token.NewFileSet()
		parsed, err := parseTree(fset, counted, "cmd", "examples", "internal", "bench")
		if err != nil {
			module.err = err
			return
		}
		files := map[string][]*ast.File{}
		for _, f := range parsed {
			path := "samrdlb/" + filepath.ToSlash(filepath.Dir(fset.Position(f.Pos()).Filename))
			files[path] = append(files[path], f)
		}
		module.tree, module.err = newTypedTree(fset, files)
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.tree
}

// auditDecl is one top-level declaration: the objects it declares, the
// tree's objects its code uses, and where it is.
type auditDecl struct {
	name       string // as rule 1 prints it: pkg.Name, pkg.T.M or pkg.(*T).M
	recv       *types.TypeName
	defs, uses []types.Object
	internal   bool
	root       bool // live whatever uses it: outside internal/, an init or a blank
	file       string
	lines      int
}

// decls lists the top-level declarations of the tree.
func (tt *typedTree) decls() []*auditDecl {
	var out []*auditDecl
	for path, files := range tt.files {
		internal := strings.HasPrefix(path, "samrdlb/internal/")
		for _, f := range files {
			add := func(n ast.Node, root bool, names ...*ast.Ident) *auditDecl {
				d := &auditDecl{internal: internal, root: !internal || root, name: f.Name.Name + "." + names[0].Name,
					file:  filepath.ToSlash(tt.fset.Position(n.Pos()).Filename),
					lines: tt.fset.Position(n.End()).Line - tt.fset.Position(n.Pos()).Line + 1}
				for _, id := range names {
					if obj := tt.info.Defs[id]; obj != nil {
						d.defs = append(d.defs, obj)
					}
				}
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(tt.info.Uses[id]); obj != nil && obj.Pkg() != nil && tt.files[obj.Pkg().Path()] != nil {
							d.uses = append(d.uses, obj)
						}
					}
					return true
				})
				out = append(out, d)
				return d
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					d := add(decl, decl.Recv == nil && decl.Name.Name == "init", decl.Name)
					if decl.Recv != nil {
						d.recv = receiver(tt.info.Defs[decl.Name])
						if _, ptr := decl.Recv.List[0].Type.(*ast.StarExpr); ptr {
							d.name = f.Name.Name + ".(*" + d.recv.Name() + ")." + decl.Name.Name
						} else {
							d.name = f.Name.Name + "." + d.recv.Name() + "." + decl.Name.Name
						}
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec, false, spec.Name)
						case *ast.ValueSpec:
							add(spec, !slices.ContainsFunc(spec.Names, func(id *ast.Ident) bool { return id.Name != "_" }), spec.Names...)
						}
					}
				}
			}
		}
	}
	return out
}

// origin maps a use of an instantiated generic function, method or
// field back to the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiver is the named type a method is declared on.
func receiver(obj types.Object) *types.TypeName {
	t := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// interfaceMethods is every method name of an interface the tree
// declares or names: a live type's method of such a name may be called
// through the interface, where no identifier names the method itself.
func (tt *typedTree) interfaceMethods() map[string]bool {
	names := map[string]bool{}
	add := func(obj types.Object) {
		switch obj := obj.(type) {
		case *types.TypeName:
			if it, ok := obj.Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					names[it.Method(i).Name()] = true
				}
			}
		case *types.Func: // a method of an interface literal
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				names[obj.Name()] = true
			}
		}
	}
	for _, obj := range tt.info.Defs {
		add(obj)
	}
	for _, obj := range tt.info.Uses {
		add(obj)
	}
	return names
}

// unreached is rule 1 over a type-checked tree: the declarations under
// internal/ that no chain of uses reaches from cmd/, examples/ or
// bench/. Uses are object identities, so a live declaration keeps what
// it names, not everything else of the same name; a method of a live
// type also stays when an interface has a method of its name. What
// allow exempts (the key it returns) stays with all it uses; exempted
// holds each key that exempted a declaration no root reaches.
func unreached(tt *typedTree, allow func(*auditDecl) string) (dead []*auditDecl, exempted map[string]bool, reached int) {
	decls := tt.decls()
	declOf := map[types.Object]*auditDecl{}
	methods := map[*types.TypeName][]*auditDecl{}
	for _, d := range decls {
		for _, obj := range d.defs {
			declOf[obj] = d
		}
		if d.recv != nil {
			methods[d.recv] = append(methods[d.recv], d)
		}
	}
	viaInterface := tt.interfaceMethods()

	live := map[*auditDecl]bool{}
	var queue []*auditDecl
	mark := func(d *auditDecl) {
		if d != nil && !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	propagate := func() {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, obj := range d.uses {
				mark(declOf[obj])
			}
			for _, obj := range d.defs {
				if tn, ok := obj.(*types.TypeName); ok {
					for _, m := range methods[tn] {
						if viaInterface[m.defs[0].Name()] {
							mark(m)
						}
					}
				}
			}
		}
	}
	for _, d := range decls {
		if d.root {
			mark(d)
		}
	}
	propagate()
	exempted = map[string]bool{}
	for _, d := range decls {
		if k := allow(d); k != "" && !live[d] {
			exempted[k] = true
			mark(d)
		}
	}
	propagate()
	for _, d := range decls {
		switch {
		case !d.internal:
		case live[d]:
			reached++
		default:
			dead = append(dead, d)
		}
	}
	return dead, exempted, reached
}

// unread is rule 3 over a type-checked tree: the fields of struct
// types declared under internal/ that counted code writes (an
// assignment, ++ or --, a keyed or positional composite literal) and
// no selector x.F or &x.F in counted code reads. An encoder reads every
// field of what it is handed, so a type whose values counted code
// passes to encoding/json or encoding/gob, and every type such a value
// holds, is exempt; so is an embedded field, which each promoted
// selector reads. allow gets a field's keys (pkg.T.F, pkg.T, its file
// and directory) and returns the one exempting it, or "".
func unread(tt *typedTree, allow func(keys ...string) string) (found []string, exempted map[string]bool, fields int) {
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	encoded := map[*types.TypeName]bool{}
	var encode func(types.Type)
	encode = func(t types.Type) {
		switch t := t.(type) {
		case *types.Pointer:
			encode(t.Elem())
		case *types.Slice:
			encode(t.Elem())
		case *types.Array:
			encode(t.Elem())
		case *types.Map:
			encode(t.Key())
			encode(t.Elem())
		case *types.Named:
			if !encoded[t.Origin().Obj()] {
				encoded[t.Origin().Obj()] = true
				encode(t.Underlying())
			}
		case *types.Struct:
			for i := range t.NumFields() {
				encode(t.Field(i).Type())
			}
		}
	}
	lhs := map[ast.Expr]bool{} // selectors an assignment or ++/-- writes
	for _, files := range tt.files {
		for _, f := range files {
			if !counted(tt.fset.Position(f.Pos()).Filename) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs[ast.Unparen(e)] = true
					}
				case *ast.IncDecStmt:
					lhs[ast.Unparen(n.X)] = true
				case *ast.SelectorExpr:
					if v := tt.field(n); v != nil {
						if lhs[n] {
							written[v] = true
						} else {
							read[v] = true
						}
					}
				case *ast.CompositeLit:
					var st *types.Struct
					if tv, ok := tt.info.Types[n]; ok {
						st, _ = tv.Type.Underlying().(*types.Struct)
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if v := tt.field(kv.Key); v != nil {
								written[v] = true
							}
						} else if st != nil {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.CallExpr:
					if fn, ok := staticCallee(tt.info, n).(*types.Func); ok && fn.Pkg() != nil &&
						(fn.Pkg().Path() == "encoding/json" || fn.Pkg().Path() == "encoding/gob") {
						for _, arg := range n.Args {
							encode(tt.info.Types[arg].Type)
						}
					}
				}
				return true
			})
		}
	}
	exempted = map[string]bool{}
	for pkg, files := range tt.files {
		if !strings.HasPrefix(pkg, "samrdlb/internal/") {
			continue
		}
		for _, f := range files {
			file := filepath.ToSlash(tt.fset.Position(f.Pos()).Filename)
			if !counted(file) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				owner := f.Name.Name + "." + spec.Name.Name
				exempt := encoded[tt.info.Defs[spec.Name].(*types.TypeName)]
				ast.Inspect(spec.Type, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								fields++
								v := tt.info.Defs[id].(*types.Var)
								if exempt || !written[v] || read[v] {
									continue
								}
								if k := allow(owner+"."+id.Name, owner, file, path.Dir(file)); k != "" {
									exempted[k] = true
								} else {
									found = append(found, file+": "+owner+"."+id.Name)
								}
							}
						}
					}
					return true
				})
				return false
			})
		}
	}
	sort.Strings(found)
	return found, exempted, fields
}

// allowed returns the first of keys that auditAllow lists, or "".
func allowed(keys ...string) string {
	for _, k := range keys {
		if _, ok := auditAllow[k]; ok {
			return k
		}
	}
	return ""
}

// allowKey returns the auditAllow key exempting d, or "".
func allowKey(d *auditDecl) string {
	keys := []string{d.name, d.file, path.Dir(d.file)}
	if d.recv != nil {
		keys = append(keys, d.defs[0].Name())
	}
	return allowed(keys...)
}

// TestAuditReachedOrRemoved is rules 1 and 3, which share auditAllow.
// Rule 1: a declaration in a non-test file under internal/ stays only
// if cmd/, examples/ or bench/ (its tests included, while bench/ is
// frozen) reaches it through a chain of uses. Rule 3: a field of an
// internal/ struct that such code writes is read there too.
func TestAuditReachedOrRemoved(t *testing.T) {
	tt := loadTree(t)
	dead, exempted, reached := unreached(tt, allowKey)
	found, fieldsExempted, fields := unread(tt, allowed)
	maps.Copy(exempted, fieldsExempted)
	t.Logf("audit: %d struct fields under internal/, each written one read", fields)
	if len(found) > 0 {
		t.Errorf("%d struct fields that non-test code writes and never reads — delete them:\n  %s",
			len(found), strings.Join(found, "\n  "))
	}
	var names []string
	deadLines := 0
	for _, d := range dead {
		names = append(names, d.file+": "+d.name)
		deadLines += d.lines
	}
	t.Logf("audit: %d reachable declarations under internal/, %d allow-listed entries", reached, len(auditAllow))
	if len(names) > 0 {
		sort.Strings(names)
		t.Errorf("%d declarations (%d lines) that no binary, example or benchmark reaches — delete them, or move test fixtures to a _test.go file:\n  %s",
			len(names), deadLines, strings.Join(names, "\n  "))
	}
	for k := range auditAllow {
		if !exempted[k] {
			t.Errorf("allow-list entry %q exempts nothing: remove it", k)
		}
	}
	if len(auditAllow) > 15 {
		t.Errorf("allow-list has %d entries, cap is 15", len(auditAllow))
	}
}

// deletedRule is a pattern that must not appear in the non-test files
// glob (space-separated globs) matches, and why.
type deletedRule struct{ pattern, glob, reason string }

// auditDeleted lists what a change removed for good, and shapes
// production code must not take. Pure greps, comments included: a rule
// about one function's code, or about a count, is a row of auditCode.
var auditDeleted = []deletedRule{
	{`dirtyAll|maxDirtyRegions|ghostOff|markDirty|patchMsgPlan|patchFillPlan|indexRebuildFactor`, "internal/amr/*.go",
		"plans are rebuilt, not patched: a structure generation invalidates a level's plans and index whole"},
	{`Box\.ForEach|\.Offset\(|\.Get\(`, "internal/amr/regrid.go internal/cluster/*.go",
		"regrid works on rows of words: FlagField.SetRows, Dilate and the one-scan signatures, no walk by geom.Index"},
	{`SetWhere\(`, "internal/workload/*.go",
		"a driver's Flag sets cells with Row.Set inside FlagField.SetRows, not through a per-cell predicate"},
	{`FillFunc\(|cellCenter|\.distance\(`, "internal/workload/*.go",
		"a driver's InitialCondition writes rows with Patch.FillRows: coordinates from the dx it is handed, per-row terms hoisted"},
	{`dilateLine|countRow|\[\]bool`, "internal/cluster/*.go",
		"a flag is a bit of a uint64 row word: Dilate shift-ORs words and every count is a popcount or byte-lane sum"},
	{`\bgw\b|VerifyGroups`, "internal/load/*.go",
		"Eq. 2 is a sum on read (Recorder.LevelGroupWork): no per-group mirror, so no oracle for one"},
	{`groupSubtree|groupL0Cells`, "internal/load/*.go",
		"the ledger keeps per-processor and per-grid tables; GroupSubtreeWork and GroupLevel0Cells sum them on read"},
	{`parentUnion`, "internal/amr/*.go",
		"CheckProperNesting proves each grid nested in a parent one level up, which implies the parent-union pass"},
	{`MarkdownReport`, "internal/exp/*.go",
		"one renderer: every report builds its metrics.Table once and takes a Format"},
	{`worker-detached|worker-resume`, "cmd/samrsim/*.go",
		"a restarted worker is detached and resumed, always both: one -worker-restart"},
	{`range h\.Grids\((l|child\.Level - 1)\)|range oldSameLevel|_, b := range boxes`, "internal/amr/regrid.go",
		"regrid finds parents and sources through the level index"},
	{`chargeMessages|pairSlot`, "internal/engine/*.go",
		"a level is charged from the hierarchy's cached processor-pair table"},
	{`WriteJSON`, "internal/trace/*.go",
		"nothing read the JSON trace export; a typed event stream is its planned replacement"},
	{`\) [rR]eset\(|\b(ep|w|box|bar|shards)\.[rR]eset\(|(?i:epoch)|(s|shards)\.worker\b|\bworker +bool`,
		"internal/mpx/*.go internal/engine/*.go",
		"a wire fault detaches; nothing rearms a world or an endpoint"},
	{`Offset\(geom\.Index\{`, "internal/solver/*.go",
		"kernels walk rows by stride from grid.RowsOf: no index arithmetic per row"},
	{`getScratch`, "internal/solver/flux.go internal/solver/burgers.go",
		"the fluxed update reads only fluxes and the cell itself, so it is applied in place"},
	{`ForEach\(func`, "internal/grid/patch.go",
		"FillFunc, Sum and MaxAbs are row loops in storage order, with no per-cell closure"},
	{`ghostLen|sizeHint|ghostCap`, "internal/amr/*.go",
		"a ghost plan is copied exact-size from its chunks' blocks, so no stale length sizes it"},
	{`\bbuildFillPlan\b|\bcand2\b`, "internal/amr/*.go",
		"one walk per destination builds the message and fill plans (buildPlans): one index query for its grown box, no second pass or candidate list"},
	{`h\.Locate\(`, "internal/engine/*.go",
		"the particle census takes the level-0 Locator once, not planMu per particle"},
	{`(?i:manifest)|MkdirTemp`, "internal/ckpt/*.go internal/scenario/*.go",
		"a store is what its directory holds, scanned on open; an in-process cut keeps its generations in memory"},
	{`TransportLoopback|"loopback"`, "internal/engine/*.go internal/scenario/*.go",
		"two data paths, not three: shared memory is the in-process reference, tcp and worker the wire"},
	{`func NewWorld\(`, "internal/mpx/*.go",
		"NewShardWorld is the one constructor; a test without sockets joins one-rank worlds in process"},
	{`Barrier\(|SameShard|type barrier`, "internal/mpx/*.go internal/amr/*.go",
		"a world hosts one rank, a processor group: nothing local to synchronise, and no rank shares a world with another"},
	{`\brememberCheckpoint\b|\btakeCheckpoint\b|\bwriteDurable\b|\bckptBuf\b`, "internal/engine/*.go",
		"a checkpoint boundary saves the hierarchy once: the recovery point is the durable generation's payload"},
	{`WorkerWire|BeforeCheckpointWrite`, "internal/engine/*.go",
		"Options.Worker is the endpoint itself; a chaos test kills a worker through its ckpt.Dir"},
	{`Disjoint\(`, "internal/geom/*.go internal/amr/*.go",
		"a level's overlap test is CheckProperNesting on the level index: no pairwise box scan in production"},
	{`tournament|bench-out|recovery-report|RecoveryReport`, "cmd/samrsim/*.go",
		"samrsim runs one run: the tournament is figures -fig tournament, and FaultSummary prints the recovery counters"},
	{`RecoveryReport`, "internal/metrics/*.go",
		"every line it printed is a FaultSummary line"},
	{`\) Markdown\(\)|Policies`, "internal/exp/tournament.go",
		"the tournament is one metrics.Table through Format.section, and it runs every registered policy"},
	{`engine\.(New|Options\{)|workload\.|dlb\.NewPolicy|\btestbed\(|ShockN|AMRN|mustRun`, "internal/exp/*.go",
		"a sweep run is a scenario.Scenario; exp picks only the machine the two ablations need"},
	{`Ledger (!=|==) nil|[pP]ool (!=|==) nil`, "internal/*/*.go",
		"no nil-selected fallback: the ledger and the pool are always there, and callers test for a fault schedule"},
	{`\b(s|d|lf)(\.s)? == nil`, "internal/fault/fault.go internal/fault/script.go",
		"every caller tests for a schedule before it calls a Schedule, LinkFault or DiskFault method, so none guards its own receiver"},
	{`engine\.Options\{|engine\.(New|Build)\(|engine\.Resume\(`, "cmd/samrsim/*.go",
		"one front door: scenario.Scenario.Start builds every engine a command runs"},
	{`os\.Args`, "cmd/samrsim/supervise.go",
		"the supervisor builds worker argv from the spec (workerArgs), not from its own"},
	{`Normalize\(`, "cmd/*/*.go",
		"a command clamps nothing a human typed: Validate rejects it instead"},
	{`recoverFallback|CheckpointFallbacks|CorruptGenerations|PristineRestarts`, "internal/*/*.go",
		"the constructor refuses a shape amr.Load rejects, so the in-memory checkpoint always loads: no fallback chain to count"},
	{`MsgKind`, "internal/amr/*.go",
		"a message's kind is its grid relation (Src is Dst's parent or child), not a field"},
	{`\bdedupeSorted\b`, "internal/amr/*.go",
		"an index query orders and deduplicates its hits with a position bitmap, not a sort and a compaction"},
	{`CheckpointKeep|ckpt-keep|ckptKeep`, "internal/engine/*.go cmd/samrsim/*.go",
		"a store keeps the newest checkpointKeep generations: one value was ever used, so it is a constant, not an option"},
	{`PackRegion|UnpackRegion|ProlongFrom|CopyRegionFrom|ZeroEdges`, "internal/grid/*.go internal/amr/*.go",
		"a planned op's rows are the one layout: the wire packs and applies them, and child init writes no edge to clear"},
	{`\b(Fig3|GammaSweep|EpsSweep|GranularitySweep|RegridIntervalSweep|ForecastAblation|SchemeSweep|MultiSiteSweep|(Fig3|Gamma|Eps|Granularity|Regrid|Forecast|Scheme|MultiSite)Row)\b`,
		"internal/exp/*.go",
		"a study is its runs: each report fills its metrics.Table straight from its jobs' Results, with no row struct or wrapper between"},
	{`\bRestrictPlan\b|\brestrictDest\b|\bbuildRestrictDataPlan\b|\bexecFillPlan\b|\bexecRestrictPlan\b|\brunFillDest\b|\brunRestrictDest\b`, "internal/amr/*.go",
		"one executor per exchange: shared memory is the wire run with a nil rank, and the restriction's one plan is the child table"},
}

// codeRule pins how often pattern matches code, comments excluded: the
// body of function fn in the files glob matches, or, with fn empty,
// those whole files. A glob matches non-test files, or the one _test.go
// file it names. n = 0 forbids the pattern; a function or file that no
// longer exists fails the rule, which would otherwise check nothing.
type codeRule struct {
	glob, fn, pattern string
	n                 int
	reason            string
}

// auditCode lists what a function's code must (not) say, and what must
// appear a fixed number of times.
var auditCode = []codeRule{
	{"internal/engine/membership.go", "", `r\.memb == nil`, 1,
		"the membership tracker exists exactly under fault injection: one guard, for the one caller reached without it"},
	{"internal/engine/membership.go", "noteProbeEvidence", `r\.memb == nil`, 1,
		"noteProbeEvidence is the one method fault-free runs reach, so it holds the guard"},
	{"internal/amr/exchange.go", "planDest", `subtractList|SubtractList|covered`, 0,
		"a ghost plan counts, never subtracts: the remainder is |grown| - |g.Box| - the sum of the overlaps; the fill's face subtraction is planFillDest's"},
	{"internal/amr/exchange.go", "GhostPlanScan", `geom\.SubtractList`, 1,
		"the -check=plan baseline subtracts boxes and shares no disjointness shortcut with the plan it checks"},
	{"internal/amr/fillplan.go", "buildFillPlanScan", `geom\.SubtractList`, 1,
		"a fill plan prolongs only what no sibling covers; the -check=plan baseline subtracts the sibling overlaps itself"},
	{"internal/amr/exchange.go", "FillGhostsScan", `subtractList|SubtractList|covered`, 0,
		"the -check=data baseline prolongs every ghost cell, then overwrites, sharing no subtraction with the face-only plan it checks"},
	{"internal/amr/exchange.go", "FillGhostsScan", `geom\.Subtract\(grown, g\.Box\)`, 1,
		"the -check=data baseline fills the whole ghost shell, so it cannot drift to the face shape it checks"},
	{"internal/amr/hierarchy.go", "CheckProperNesting", `overlapsOther`, 1,
		"the nesting check asks the level index: overlap is a bucket scan per grid"},
	{"internal/amr/hierarchy.go", "CheckProperNesting", `Boxes\(`, 0,
		"the nesting check copies no level with Boxes"},
	{"internal/amr/nesting_ref_test.go", "refCheckProperNesting", `disjoint\(boxes\)`, 1,
		"the nesting oracle keeps its pairwise overlap loop"},
	{"internal/amr/nesting_ref_test.go", "refCheckProperNesting", `indexFor|currentIndex|overlapsOther`, 0,
		"the nesting oracle stays independent of the level index it checks"},
	{"internal/amr/spatialindex.go", "query", `slices\.Sort`, 0,
		"an index query reads its hits in level-list order off the buckets or the position bitmap: no sort"},
	{"internal/amr/exchange.go", "aggregate", `slices\.Sort`, 0,
		"a pair table is read off the pair slots in slot order, which is (Src, Dst) order: no sort"},
	{"internal/amr/mpxdata.go", "FillGhostsMPX", `\.Field\(`, 0,
		"the wire fill looks up no field by name: it packs and applies a planned op's rows through applyFillOp, field by FieldAt"},
	{"internal/amr/regrid.go", "initChildData", `\.Field\(`, 0,
		"child init runs planned fill ops through applyFillOp, field by FieldAt"},
	{"internal/amr/regrid.go", "initChildData", `AppendFaces|GrowDim|Grown\(`, 0,
		"child init plans over the child's box; the fill owns every ghost"},
	{"internal/amr/regrid.go", "initChildren", `Grown\(`, 0,
		"a new child's sources are the grids that overlap its box, not its ghost shell"},
	{"internal/amr/regrid.go", "FlagWhereGradient", `FillGhostsData`, 1,
		"gradient flagging reads face ghosts, so it fills the level first, through CheckFill"},
	{"internal/amr/hierarchy.go", "AddGrid", `grid\.NewPatch\(`, 0,
		"hierarchy patches get storage one way: a retired grid's of the same length, or fresh, through grid.PatchOver"},
	{"internal/amr/reflux.go", "buildInterfacePlan", `p\.(faces|coarseRefs) = append`, 0,
		"the interface plan grows its face table and work lists in the pooled scratch and copies them out at their exact size"},
	{"internal/engine/*.go", "", `InitialCondition\(`, 1,
		"initLevel0 and regrid write the initial condition only through initialCondition, inside Pool.ForEach"},
	{"internal/engine/engine.go", "initialCondition", `Pool\.ForEach\(len\(grids\), func\(i int\) \{ r\.driver\.InitialCondition\(grids\[i\]\.Patch, dx\) \}\)`, 1,
		"the initial condition is written one grid per pool task"},
	{"internal/scenario/*.go", "", `engine\.Build\(`, 1,
		"one front door: Scenario.Start is the one place that builds an engine"},
	{"internal/scenario/*.go", "", `engine\.Resume\(`, 1,
		"one front door: Scenario.Start is the one place that resumes an engine"},
}

// readGlobs reads the files the globs match, keyed by slash path.
func readGlobs(globs ...string) (map[string][]byte, error) {
	src := map[string][]byte{}
	for _, glob := range globs {
		names, err := filepath.Glob(glob)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			if src[filepath.ToSlash(name)], err = os.ReadFile(name); err != nil {
				return nil, err
			}
		}
	}
	return src, nil
}

// matching returns the paths of src that glob matches, sorted: its
// non-test files, or the one _test.go file it names.
func matching(src map[string][]byte, glob string) []string {
	var out []string
	for name := range src {
		if ok, _ := path.Match(glob, name); ok && (notTest(name) || name == glob) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// stillDeleted checks rules against src and returns one finding per
// line that brings a pattern back, and per rule that matches no file.
func stillDeleted(rules []deletedRule, src map[string][]byte) []string {
	var out []string
	for _, r := range rules {
		re := regexp.MustCompile(r.pattern)
		var files []string
		for _, glob := range strings.Fields(r.glob) {
			files = append(files, matching(src, glob)...)
		}
		if len(files) == 0 {
			out = append(out, fmt.Sprintf("%s matches no non-test file: the rule for %q checks nothing", r.glob, r.pattern))
		}
		for _, f := range files {
			for i, line := range strings.Split(string(src[f]), "\n") {
				if re.MatchString(line) {
					out = append(out, fmt.Sprintf("%s:%d: %s\n  is back: %s", f, i+1, strings.TrimSpace(line), r.reason))
				}
			}
		}
	}
	return out
}

// checkCode checks rules against src and returns one finding per rule
// that fails.
func checkCode(rules []codeRule, src map[string][]byte) []string {
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	var out []string
	for _, r := range rules {
		where := r.glob
		if r.fn != "" {
			where = r.fn + " in " + r.glob
		}
		var code []string
		for _, name := range matching(src, r.glob) {
			f := parsed[name]
			if f == nil {
				var err error
				if f, err = parser.ParseFile(fset, name, src[name], parser.ParseComments); err != nil {
					out = append(out, err.Error())
					continue
				}
				parsed[name] = f
			}
			if r.fn == "" {
				code = append(code, uncommented(fset, f, src[name], f))
				continue
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == r.fn {
					code = append(code, uncommented(fset, f, src[name], fn))
				}
			}
		}
		got := len(regexp.MustCompile(r.pattern).FindAllStringIndex(strings.Join(code, "\n"), -1))
		switch {
		case len(code) == 0:
			out = append(out, fmt.Sprintf("%s: no such code, so the rule for %q checks nothing", where, r.pattern))
		case got != r.n:
			out = append(out, fmt.Sprintf("%s: %q matches %d times, want %d: %s", where, r.pattern, got, r.n, r.reason))
		}
	}
	return out
}

// uncommented is the source of n, a node of f, with its comments blanked.
func uncommented(fset *token.FileSet, f *ast.File, src []byte, n ast.Node) string {
	tf := fset.File(n.Pos())
	base := tf.Offset(n.Pos())
	code := slices.Clone(src[base:tf.Offset(n.End())])
	for _, c := range f.Comments {
		if c.Pos() >= n.Pos() && c.End() <= n.End() {
			for i := tf.Offset(c.Pos()); i < tf.Offset(c.End()); i++ {
				code[i-base] = ' '
			}
		}
	}
	return string(code)
}

// TestAuditStaysDeleted is rule 4: what was deleted on purpose stays
// deleted, checked by tier-1 and not only by CI.
func TestAuditStaysDeleted(t *testing.T) {
	var globs []string
	for _, r := range auditDeleted {
		globs = append(globs, strings.Fields(r.glob)...)
	}
	src, err := readGlobs(globs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, finding := range stillDeleted(auditDeleted, src) {
		t.Error(finding)
	}
}

// TestAuditCode is rule 5: the function bodies and counts of auditCode.
func TestAuditCode(t *testing.T) {
	var globs []string
	for _, r := range auditCode {
		globs = append(globs, r.glob)
	}
	src, err := readGlobs(globs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, finding := range checkCode(auditCode, src) {
		t.Error(finding)
	}
	t.Logf("audit: %d pattern rules, %d code rules", len(auditDeleted), len(auditCode))
}

var knobDoc = regexp.MustCompile(`0 = default|\(default[ :]|\(defaults \d`)

// field returns the struct field an expression writes: the key of a
// composite literal or a selector x.F, nil for anything else.
func (tt *typedTree) field(e ast.Expr) *types.Var {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = tt.info.Uses[e]
	case *ast.SelectorExpr:
		if sel := tt.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			obj = sel.Obj()
		}
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// TestAuditTwoValuesOrConstant is rule 2: a struct field under internal/
// documented as having a default is an option, and an option stays only
// while some non-test file outside a fill-in of its default sets it. A
// field every caller leaves at zero has one value in use and should be a
// constant. Writes are matched by the field itself (go/types), so a
// literal that sets another struct's field of the same name does not
// count.
func TestAuditTwoValuesOrConstant(t *testing.T) {
	tt := loadTree(t)

	// set[field]: the field is given a value — a composite-literal key,
	// an assignment to x.F, or &x.F handed to a flag registration —
	// somewhere other than under an `if x.F <= 0 { x.F = default }`
	// fill-in, which is the default itself and not a second value.
	set := map[*types.Var]bool{}
	write := func(e ast.Expr) {
		if v := tt.field(e); v != nil {
			set[v] = true
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if isZeroTest(n.Cond) {
				if n.Else != nil {
					ast.Inspect(n.Else, visit)
				}
				return false
			}
		case *ast.KeyValueExpr:
			write(n.Key)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.CallExpr:
			if fn, ok := staticCallee(tt.info, n).(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "flag" {
				for _, arg := range n.Args {
					if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
						write(u.X)
					}
				}
			}
		}
		return true
	}
	var internal []*ast.File
	for path, files := range tt.files {
		for _, f := range files {
			if notTest(tt.fset.Position(f.Pos()).Filename) {
				ast.Inspect(f, visit)
			}
		}
		if strings.HasPrefix(path, "samrdlb/internal/") {
			internal = append(internal, files...)
		}
	}

	knobs := 0
	var unset []string
	for _, f := range internal {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !knobDoc.MatchString(fld.Doc.Text() + fld.Comment.Text()) {
					continue
				}
				for _, name := range fld.Names {
					knobs++
					if v, _ := tt.info.Defs[name].(*types.Var); !set[v] {
						unset = append(unset, filepath.ToSlash(tt.fset.Position(name.Pos()).String())+": "+name.Name)
					}
				}
			}
			return true
		})
	}
	sort.Strings(unset)
	t.Logf("audit: %d documented-default knobs under internal/, each set by a non-test caller", knobs-len(unset))
	if len(unset) > 0 {
		t.Errorf("%d option fields document a default but no non-test file sets them — make each a constant:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// staticCallee is the function or method a call names statically, or
// nil (a call through a func value, a conversion, a builtin).
func staticCallee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // a qualified identifier: pkg.F
	}
	return nil
}

// isZeroTest reports whether cond is `x.F == 0`, `x.F <= 0` or an
// ||-chain of such tests.
func isZeroTest(cond ast.Expr) bool {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if b.Op == token.LOR {
		return isZeroTest(b.X) && isZeroTest(b.Y)
	}
	if b.Op != token.EQL && b.Op != token.LEQ && b.Op != token.LSS {
		return false
	}
	lit, ok := b.Y.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// docFiles are the documents whose backticked names must be code of
// this tree. bench/README.md is read, never edited, while bench/ is
// frozen.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "bench/README.md"}

// docAllow lists backticked names that are not code of this tree, each
// with its reason. Every entry must exempt something.
var docAllow = map[string]string{
	"Scenario.Execute":     "bench/README.md is frozen until the benchmark is re-seeded; the method is ExecuteWithHistory",
	"scenario.exec_p99_ms": "bench/README.md names the metric scenario.exec_tail_ms replaced",
	"total_s":              "bench/README.md's short form of the metric vclock.total_s",

	"ProcessState.SysUsage": "standard library (os)",
	"Maxrss":                "standard library (syscall.Rusage)",
	"MemStats.TotalAlloc":   "standard library (runtime)",
	"MemStats.Mallocs":      "standard library (runtime)",
}

var (
	goNameShape = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	flagShape   = regexp.MustCompile(`^-[A-Za-z][A-Za-z0-9-]*(=\S*)?$`)
	flagFunc    = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Text)?(Var|Func)?$`)
	tagValue    = regexp.MustCompile(`:"([^",]*)`)
	pathShape   = regexp.MustCompile(`^[A-Za-z0-9_.][A-Za-z0-9_.-]*(/[A-Za-z0-9_.-]+)+/?$`)
	codeSpan    = regexp.MustCompile("`([^`]+)`")
)

// docIndex is what a backticked name may resolve to.
type docIndex struct {
	pkgDecls map[string]map[string]bool // package name → every name declared in it, members included
	members  map[string]map[string]bool // type name, bare and "pkg.Type" → its fields and methods
	embeds   map[string][]string        // type name, bare and "pkg.Type" → the types it embeds
	names    map[string]bool            // every declared name
	strs     map[string]bool            // every string literal
	flags    map[string][]string        // flag name → the usage strings that register it
	files    map[string]bool            // every path in the tree, and every file's base name
	ignored  []string                   // .gitignore prefixes: paths a build or run leaves behind
}

func buildDocIndex(t *testing.T) *docIndex {
	ix := &docIndex{pkgDecls: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{},
		names: map[string]bool{}, strs: map[string]bool{}, flags: map[string][]string{}, files: map[string]bool{}}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path != "." && strings.HasPrefix(d.Name(), ".") {
			if d != nil && d.IsDir() {
				return filepath.SkipDir
			}
			return err
		}
		ix.files[filepath.ToSlash(path)], ix.files[d.Name()] = true, true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(ignore), "\n") {
		if line = strings.TrimPrefix(strings.TrimSpace(line), "/"); line != "" && !strings.HasPrefix(line, "#") {
			ix.ignored = append(ix.ignored, line)
		}
	}

	fset := token.NewFileSet()
	files, err := parseTree(fset, func(string) bool { return true }, ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		pkg := f.Name.Name
		declare := func(name string) { add(ix.pkgDecls, pkg, name); ix.names[name] = true }
		member := func(typ, name string) {
			add(ix.members, typ, name)
			add(ix.members, pkg+"."+typ, name)
			declare(name)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv != nil {
					member(recvName(fn.Recv.List[0].Type), fn.Name.Name)
				} else {
					declare(fn.Name.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				declare(n.Name.Name)
				fields := &ast.FieldList{}
				switch typ := n.Type.(type) {
				case *ast.StructType:
					fields = typ.Fields
				case *ast.InterfaceType:
					fields = typ.Methods
				}
				for _, fld := range fields.List {
					for _, name := range fld.Names {
						member(n.Name.Name, name.Name)
					}
					if len(fld.Names) == 0 { // embedded: its name is the type's, its members are promoted
						e := fld.Type
						if star, ok := e.(*ast.StarExpr); ok {
							e = star.X
						}
						name, typ := recvName(e), pkg+"."+recvName(e)
						if sel, ok := e.(*ast.SelectorExpr); ok {
							name, typ = sel.Sel.Name, sel.X.(*ast.Ident).Name+"."+sel.Sel.Name
						}
						member(n.Name.Name, name)
						ix.embeds[n.Name.Name] = append(ix.embeds[n.Name.Name], typ)
						ix.embeds[pkg+"."+n.Name.Name] = append(ix.embeds[pkg+"."+n.Name.Name], typ)
					}
					if fld.Tag != nil {
						tag, _ := strconv.Unquote(fld.Tag.Value)
						if name, ok := reflect.StructTag(tag).Lookup("flag"); ok {
							ix.flags[name] = append(ix.flags[name], reflect.StructTag(tag).Get("usage"))
						}
						for _, m := range tagValue.FindAllStringSubmatch(tag, -1) {
							ix.strs[m[1]] = true // json and spec key names
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					declare(name.Name)
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
					ix.strs[s] = true
				}
			case *ast.CallExpr:
				ix.addFlag(n)
			}
			return true
		})
	}
	return ix
}

// recvName is the type name of a method receiver: T, *T or T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// addFlag records a flag.X / FlagSet.X registration: the name is the
// first string argument, the usage the last.
func (ix *docIndex) addFlag(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !flagFunc.MatchString(sel.Sel.Name) {
		return
	}
	var lits []string
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, _ := strconv.Unquote(lit.Value)
			lits = append(lits, s)
		}
	}
	if len(lits) >= 2 {
		ix.flags[lits[0]] = append(ix.flags[lits[0]], lits[len(lits)-1])
	}
}

// goName resolves a Go-shaped name: `Name`, `pkg.Name[.Member]` with
// Name declared in package pkg, or `Type.Member`.
func (ix *docIndex) goName(tok string) bool {
	parts := strings.Split(strings.TrimSuffix(tok, "()"), ".")
	owner, rest := parts[0], parts[1:]
	if decls, isPkg := ix.pkgDecls[owner]; isPkg && len(rest) > 0 {
		if !decls[rest[0]] {
			return false
		}
		owner, rest = owner+"."+rest[0], rest[1:]
	} else if !ix.names[owner] {
		return false
	}
	for i, name := range rest {
		if ix.members[owner] == nil { // a field or variable: its type is not indexed, so what follows need only be declared
			return !slices.ContainsFunc(rest[i:], func(n string) bool { return !ix.names[n] })
		}
		if !ix.has(owner, name) {
			return false
		}
		owner = name
	}
	return true
}

// has reports whether type typ, or a type it embeds, has the member.
func (ix *docIndex) has(typ, member string) bool {
	return ix.members[typ][member] || slices.ContainsFunc(ix.embeds[typ], func(e string) bool { return ix.has(e, member) })
}

// path resolves a path relative to the repository root or to the
// document's directory, or one under a git-ignored output directory.
func (ix *docIndex) path(doc, p string) bool {
	p = strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(p, "./"), "samrdlb/"), "/")
	if ix.files[p] || ix.files[filepath.ToSlash(filepath.Join(filepath.Dir(doc), p))] {
		return true
	}
	for f := range ix.files {
		if strings.HasSuffix(f, "/"+p) {
			return true
		}
	}
	if dir, name, ok := strings.Cut(p[strings.LastIndex(p, "/")+1:], "."); ok && ix.files[p[:strings.LastIndex(p, "/")+1]+dir] {
		return ix.goName(dir + "." + name) // an import path and a name in it: internal/load.Ledger
	}
	return slices.ContainsFunc(ix.ignored, func(dir string) bool { return strings.HasPrefix(p+"/", dir) })
}

// flag checks `-name`, `-name=value` or `-name value`: the name must be
// registered, and a value of a flag whose usage lists its choices
// ("a | b | c") must be one of them.
func (ix *docIndex) flag(word, value string) string {
	name, v, hasV := strings.Cut(word[1:], "=")
	usages, ok := ix.flags[name]
	if !ok && name != "h" {
		return "no flag registers -" + name
	}
	if hasV {
		value = v
	}
	for _, usage := range usages {
		if !strings.Contains(usage, " | ") || value == "" {
			return ""
		}
		choices := strings.Fields(strings.ReplaceAll(usage, "|", " "))
		for _, v := range strings.FieldsFunc(strings.Trim(value, "[]"), func(r rune) bool { return r == '|' || r == ',' }) {
			if !slices.Contains(choices, v) {
				return fmt.Sprintf("-%s takes %s, not %q", name, usage, v)
			}
		}
	}
	return ""
}

// check returns why a backticked span names nothing real ("" if it does).
func (ix *docIndex) check(doc, span string, usedAllow map[string]bool) string {
	if _, ok := docAllow[span]; ok {
		usedAllow[span] = true
		return ""
	}
	words := strings.Fields(span)
	if len(words) == 1 {
		switch w := words[0]; {
		case flagShape.MatchString(w):
			return ix.flag(w, "")
		case goNameShape.MatchString(w) && strings.ContainsAny(w, "ABCDEFGHIJKLMNOPQRSTUVWXYZ._()"):
			if ix.files[w] || ix.strs[w] || ix.goName(w) {
				return ""
			}
			return "names nothing declared in the tree"
		case pathShape.MatchString(w) && !strings.Contains(w, "..."):
			if !ix.path(doc, w) {
				return "no such path"
			}
		}
		return ""
	}
	// A command line: `samrsim ...`, `figures ...`, `go run ./cmd/x ...`.
	if words[0] == "go" && len(words) > 2 && words[1] == "run" && !strings.HasPrefix(words[2], "-") {
		if !ix.path(doc, words[2]) {
			return "no such path " + words[2]
		}
		words = words[2:]
	}
	cmd := strings.TrimPrefix(strings.TrimPrefix(words[0], "./"), "cmd/")
	if !ix.files["cmd/"+cmd] {
		return ""
	}
	for i, w := range words[1:] {
		if !flagShape.MatchString(w) {
			continue
		}
		value := ""
		if i+2 < len(words) && !strings.HasPrefix(words[i+2], "-") {
			value = words[i+2]
		}
		if why := ix.flag(w, value); why != "" {
			return why
		}
	}
	return ""
}

// TestDocsNameRealCode: every backticked name in the documents that is
// shaped like Go code, a path, a flag or a command line of this
// repository resolves — to a declaration (tests and bench/ included),
// an existing path, a string literal such as a bench metric name, or a
// registered flag and one of its listed values. A renamed or deleted
// identifier fails here, not in a reader's head.
func TestDocsNameRealCode(t *testing.T) {
	ix := buildDocIndex(t)
	usedAllow := map[string]bool{}
	checked := 0
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(strings.ReplaceAll(line, `\|`, "|"), -1) {
				checked++
				if why := ix.check(doc, strings.TrimSpace(m[1]), usedAllow); why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, m[1], why)
				}
			}
		}
	}
	t.Logf("audit: %d backticked spans in %d documents, %d allow-listed names", checked, len(docFiles), len(docAllow))
	for k := range docAllow {
		if !usedAllow[k] {
			t.Errorf("doc allow-list entry %q exempts nothing: remove it", k)
		}
	}
}

// fixtureTree type-checks sources keyed by file path; a file's
// directory is its package's import path.
func fixtureTree(t *testing.T, sources map[string]string) *typedTree {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for name, src := range sources {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[path.Dir(name)] = append(files[path.Dir(name)], f)
	}
	tt, err := newTypedTree(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// TestAuditRulesOnFixtures runs the rules on sources small enough to
// read: each case is a way a rule could go blind.
func TestAuditRulesOnFixtures(t *testing.T) {
	t.Run("a dead method sharing a live method's name is reported", func(t *testing.T) {
		tt := fixtureTree(t, map[string]string{
			"samrdlb/internal/p/f.go": `package p

type Live struct{}

func (Live) Get() int { return 1 }

// Dead is named by the command, but nothing calls its Get.
type Dead struct{}

func (Dead) Get() int { return 2 }

// Stringer keeps Dead.String: an interface can call it.
type Stringer interface{ String() string }

func (Dead) String() string { return "dead" }

func Kept() int { return kept() }

func kept() int { return 3 }
`,
			"samrdlb/cmd/c/main.go": `package main

import "samrdlb/internal/p"

var _ p.Stringer

func main() { var d p.Dead; _ = d; println(p.Live{}.Get()) }
`,
		})
		allow := func(d *auditDecl) string {
			if d.name == "p.Kept" {
				return d.name
			}
			return ""
		}
		dead, exempted, _ := unreached(tt, allow)
		var names []string
		for _, d := range dead {
			names = append(names, d.name)
		}
		if !slices.Equal(names, []string{"p.Dead.Get"}) || !exempted["p.Kept"] {
			t.Errorf("dead = %v, exempted = %v; want [p.Dead.Get], p.Kept exempted (and kept, which it calls, live)", names, exempted)
		}
	})

	t.Run("a field written and never read is reported, unless an encoder or the allow-list reads it", func(t *testing.T) {
		tt := fixtureTree(t, map[string]string{
			"samrdlb/internal/p/f.go": `package p

import "encoding/gob"

// Row: Used is read; WriteOnly, pos and B are only written (keyed,
// ++, positional); TestOnly is read by a test alone; Named is
// allow-listed; Spare is never written at all.
type Row struct {
	Used, WriteOnly, TestOnly, Named, Spare int
	pos                                     int
}

type Pair struct{ A, B int }

func Make() Row {
	r := Row{Used: 1, WriteOnly: 2, TestOnly: 3}
	r.Named = 4
	r.pos++
	return r
}

func First() int { p := Pair{1, 2}; return p.A }

// Saved is gob-encoded, so the encoder reads N and its Inner's M.
type Saved struct {
	N     int
	Inner *Inner
}

type Inner struct{ M int }

func Save(enc *gob.Encoder) error { return enc.Encode(Saved{N: 1, Inner: &Inner{M: 2}}) }
`,
			"samrdlb/internal/p/f_test.go": `package p

func read(r Row) int { return r.TestOnly }
`,
			"samrdlb/cmd/c/main.go": `package main

import "samrdlb/internal/p"

func main() { println(p.Make().Used, p.First(), p.Save(nil)) }
`,
		})
		allow := func(keys ...string) string {
			if keys[0] == "p.Row.Named" {
				return keys[0]
			}
			return ""
		}
		found, exempted, _ := unread(tt, allow)
		want := []string{
			"samrdlb/internal/p/f.go: p.Pair.B",
			"samrdlb/internal/p/f.go: p.Row.TestOnly",
			"samrdlb/internal/p/f.go: p.Row.WriteOnly",
			"samrdlb/internal/p/f.go: p.Row.pos",
		}
		if !slices.Equal(found, want) || !exempted["p.Row.Named"] {
			t.Errorf("found %q, exempted %v; want %q and p.Row.Named exempted", found, exempted, want)
		}
	})

	src := map[string][]byte{
		"x/a.go": []byte(`package x

func plan() {
	// a comment may say covered
	remaining := 0
	_ = remaining
}

func scan() { guard(); guard() }

func guard() {}
`),
		"x/a_test.go": []byte("package x\n\nfunc oracle() { guard() }\n"),
	}
	cases := []struct {
		name string
		rule codeRule
		want string // a substring of the one finding; "" for none
	}{
		{"a body that keeps its shape passes", codeRule{"x/*.go", "plan", `covered`, 0, ""}, ""},
		{"a forbidden pattern in a body fails", codeRule{"x/*.go", "plan", `remaining`, 0, "why"}, `matches 2 times, want 0: why`},
		{"a body row whose function is gone fails", codeRule{"x/*.go", "planScan", `covered`, 0, ""}, "planScan in x/*.go: no such code"},
		{"a count row off by one fails", codeRule{"x/*.go", "", `guard\(\)`, 2, "once per scan"}, `matches 3 times, want 2: once per scan`},
		{"a glob leaves test files out", codeRule{"x/*.go", "oracle", `guard`, 1, ""}, "no such code"},
		{"a test file is read when named", codeRule{"x/a_test.go", "oracle", `guard`, 1, ""}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := checkCode([]codeRule{c.rule}, src)
			if c.want == "" && len(got) > 0 || c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)) {
				t.Errorf("findings %q, want one containing %q", got, c.want)
			}
		})
	}
}
