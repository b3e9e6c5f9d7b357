package samrdlb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
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
		"regrid works on rows: FlagField.SetRows, Dilate and the one-scan signatures, no walk by geom.Index"},
	{`SetWhere\(`, "internal/workload/*.go",
		"a driver's Flag writes rows through FlagField.SetRows, not a per-cell predicate"},
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
