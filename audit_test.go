package samrdlb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// auditAllow lists the internal/ declarations that stay although no
// binary, example or benchmark names them, each with its reason. Keys
// are "pkg.Name", a bare method name (methods the standard library calls
// through an interface), or a file path exempting the whole file.
var auditAllow = map[string]string{
	"Unwrap": "errors.Is/As walk the chain through it; nothing names it",

	"geom.BoxFromShape": "the box constructor of ~70 fixtures in nine packages' tests, which cannot see a geom _test.go file",

	"internal/scenario/shrink.go": "test infrastructure: the scenario shrinker runs only when a soak fails",
	"scenario.FromBytes":          "test infrastructure: the decoder FuzzScenario feeds",
	"scenario.ReplayCommand":      "test infrastructure: prints the repro line of a failing scenario",
}

// parseTree parses every .go file under each root for which keep
// returns true.
func parseTree(t *testing.T, fset *token.FileSet, keep func(path string) bool, roots ...string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
			t.Fatal(err)
		}
	}
	return files
}

func notTest(path string) bool { return !strings.HasSuffix(path, "_test.go") }

// idents adds every identifier name under n to set.
func idents(n ast.Node, set map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			set[id.Name] = true
		}
		return true
	})
}

// auditDecl is one top-level declaration of internal/: its name, where
// it is, and every identifier its body mentions.
type auditDecl struct {
	pkg, name, file string
	recv            string // receiver type name, methods only
	lines           int
	uses            map[string]bool
}

// reached reports whether a live declaration names d; a method also
// needs its receiver type to be live.
func (d auditDecl) reached(live map[string]bool) bool {
	if d.name == "init" || d.name == "_" {
		return true // runs, or is evaluated, when the package loads
	}
	return live[d.name] && (d.recv == "" || live[d.recv])
}

// allowKey returns the allow-list key exempting d, or "".
func (d auditDecl) allowKey() string {
	for _, k := range []string{d.pkg + "." + d.name, d.file} {
		if _, ok := auditAllow[k]; ok {
			return k
		}
	}
	if _, ok := auditAllow[d.name]; ok && d.recv != "" {
		return d.name
	}
	return ""
}

func internalDecls(fset *token.FileSet, files []*ast.File) []auditDecl {
	var out []auditDecl
	add := func(f *ast.File, name, recv string, n ast.Node) {
		d := auditDecl{
			pkg:   f.Name.Name,
			name:  name,
			recv:  recv,
			file:  filepath.ToSlash(fset.Position(n.Pos()).Filename),
			lines: fset.Position(n.End()).Line - fset.Position(n.Pos()).Line + 1,
			uses:  map[string]bool{},
		}
		idents(n, d.uses)
		out = append(out, d)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if decl.Recv != nil {
					recv = recvName(decl.Recv.List[0].Type)
				}
				add(f, decl.Name.Name, recv, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(f, spec.Name.Name, "", spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(f, name.Name, "", spec)
						}
					}
				}
			}
		}
	}
	return out
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

// TestAuditReachedOrRemoved is rule 1: a declaration in a non-test file
// under internal/ stays only if cmd/, examples/ or bench/ can reach it.
// The walk is over identifier names (a name mentioned by a live
// declaration makes every declaration of that name live), so it
// over-approximates liveness and never reports a used declaration.
func TestAuditReachedOrRemoved(t *testing.T) {
	fset := token.NewFileSet()
	live := map[string]bool{}
	for _, f := range parseTree(t, fset, notTest, "cmd", "examples") {
		idents(f, live)
	}
	// bench/ is frozen, its tests included: whatever they name stays.
	for _, f := range parseTree(t, fset, func(string) bool { return true }, "bench") {
		idents(f, live)
	}
	decls := internalDecls(fset, parseTree(t, fset, notTest, "internal"))
	for grew := true; grew; {
		grew = false
		for _, d := range decls {
			if !d.reached(live) {
				continue
			}
			for name := range d.uses {
				if !live[name] {
					live[name], grew = true, true
				}
			}
		}
	}

	var dead []string
	reached, deadLines := 0, 0
	usedAllow := map[string]bool{}
	for _, d := range decls {
		switch k := d.allowKey(); {
		case d.reached(live):
			reached++
		case k != "":
			usedAllow[k] = true
		default:
			name := d.pkg + "." + d.name
			if d.recv != "" {
				name = d.pkg + "." + d.recv + "." + d.name
			}
			dead = append(dead, d.file+": "+name)
			deadLines += d.lines
		}
	}
	t.Logf("audit: %d reachable declarations under internal/, %d allow-listed entries", reached, len(auditAllow))
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations (%d lines) that no binary, example or benchmark reaches — delete them, or move test fixtures to a _test.go file:\n  %s",
			len(dead), deadLines, strings.Join(dead, "\n  "))
	}
	for k := range auditAllow {
		if !usedAllow[k] {
			t.Errorf("allow-list entry %q exempts nothing: remove it", k)
		}
	}
	if len(auditAllow) > 15 {
		t.Errorf("allow-list has %d entries, cap is 15", len(auditAllow))
	}
}

// auditDeleted lists what a PR removed for good: a pattern that must
// not come back in the non-test files its globs (space-separated) match,
// and what replaced it. Pure greps only — a check that needs a function body or a count
// is a step of .github/workflows/ci.yml.
var auditDeleted = []struct{ pattern, glob, reason string }{
	{`dirtyAll|maxDirtyRegions|ghostOff|markDirty|patchMsgPlan|patchFillPlan|indexRebuildFactor`, "internal/amr/*.go",
		"plans are rebuilt, not patched: a structure generation invalidates a level's plans and index whole"},
	{`Box\.ForEach|\.Offset\(|\.Get\(`, "internal/amr/regrid.go internal/cluster/*.go",
		"regrid works on rows of words: FlagField.SetRows, Dilate and the one-scan signatures, no walk by geom.Index"},
	{`SetWhere\(`, "internal/workload/*.go",
		"a driver's Flag sets cells with Row.Set inside FlagField.SetRows, not through a per-cell predicate"},
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
	{`h\.Locate\(`, "internal/engine/*.go",
		"the particle census takes the level-0 Locator once, not planMu per particle"},
	{`(?i:manifest)|MkdirTemp`, "internal/ckpt/*.go internal/scenario/*.go",
		"a store is what its directory holds, scanned on open; an in-process cut keeps its generations in memory"},
	{`TransportLoopback|"loopback"`, "internal/engine/*.go internal/scenario/*.go",
		"two data paths, not three: shared memory is the in-process reference, tcp and worker the wire"},
	{`func NewWorld\(`, "internal/mpx/*.go",
		"NewShardWorld is the one constructor; a test without sockets builds a one-shard world"},
	{`WorkerWire|BeforeCheckpointWrite`, "internal/engine/*.go",
		"Options.Worker is the endpoint itself; a chaos test kills a worker through its ckpt.Dir"},
}

// TestAuditStaysDeleted is rule 3: what was deleted on purpose stays
// deleted, checked by tier-1 and not only by CI.
func TestAuditStaysDeleted(t *testing.T) {
	for _, d := range auditDeleted {
		re := regexp.MustCompile(d.pattern)
		var files []string
		for _, glob := range strings.Fields(d.glob) {
			m, err := filepath.Glob(glob)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, slices.DeleteFunc(m, func(f string) bool { return !notTest(f) })...)
		}
		if len(files) == 0 {
			t.Errorf("%s matches no non-test file: the rule for %q checks nothing", d.glob, d.pattern)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if re.MatchString(line) {
					t.Errorf("%s:%d: %s\n  is back: %s", f, i+1, strings.TrimSpace(line), d.reason)
				}
			}
		}
	}
}

var knobDoc = regexp.MustCompile(`0 = default|\(default `)

// TestAuditTwoValuesOrConstant is rule 2: a struct field under internal/
// documented as having a default is an option, and an option stays only
// while some non-test file sets it. A field every caller leaves at zero
// has one value in use and should be a constant.
func TestAuditTwoValuesOrConstant(t *testing.T) {
	fset := token.NewFileSet()
	internal := parseTree(t, fset, notTest, "internal")
	all := append(parseTree(t, fset, notTest, "cmd", "examples", "bench"), internal...)

	// set[field]: the field is given a value somewhere other than under
	// an `if x.F <= 0 { x.F = default }` fill-in, which is the default
	// itself and not a second value.
	set := map[string]bool{}
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
			if id, ok := n.Key.(*ast.Ident); ok {
				set[id.Name] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					set[sel.Sel.Name] = true
				}
			}
		}
		return true
	}
	for _, f := range all {
		ast.Inspect(f, visit)
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
					if !set[name.Name] {
						unset = append(unset, filepath.ToSlash(fset.Position(name.Pos()).String())+": "+name.Name)
					}
				}
			}
			return true
		})
	}
	t.Logf("audit: %d documented-default knobs under internal/, each set by a non-test caller", knobs-len(unset))
	if len(unset) > 0 {
		t.Errorf("%d option fields document a default but no non-test file sets them — make each a constant:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
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
	for _, f := range parseTree(t, fset, func(string) bool { return true }, ".") {
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
