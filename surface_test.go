// The surface gate: production code is what a shipped binary reaches. The
// test builds the four mains and bench/ with inlining off for this module
// (so every called function keeps its symbol), reads the five symbol tables,
// and fails naming every function declared in a non-test file under
// internal/ that is in none of them and not on the allowlist below.
//
//	go test -run TestSurface .
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the functions that may live outside every binary, each
// with the reason it stays. Names are as the gate prints them: the package
// path below internal/, then Func or Type.Method. An entry that a binary
// reaches, or that names nothing, fails the gate: the list can only shrink.
var surfaceAllow = map[string]string{
	"expr.VInt.isValue":  "marker method: closes the Value interface",
	"expr.VBool.isValue": "marker method: closes the Value interface",
	"expr.VStr.isValue":  "marker method: closes the Value interface",
	"expr.VUnit.isValue": "marker method: closes the Value interface",
	"expr.VList.isValue": "marker method: closes the Value interface",
	"expr.Lit.isExpr":    "marker method: closes the Expr interface",
	"expr.Var.isExpr":    "marker method: closes the Expr interface",
	"expr.Prim.isExpr":   "marker method: closes the Expr interface",
	"expr.If.isExpr":     "marker method: closes the Expr interface",
	"expr.Let.isExpr":    "marker method: closes the Expr interface",
	"expr.Apply.isExpr":  "marker method: closes the Expr interface",
	"expr.Hole.isExpr":   "marker method: closes the Expr interface",

	"machine.cachedSource.Seed": "satisfies rand.Source; rand.New never calls it",

	"sim.Kernel.RunUntil":         "test seam: kernel-order and idle-machine tests run virtual time to a bound",
	"sim.Kernel.Pending":          "test seam: the same tests assert what is still queued",
	"sim.Timer.Active":            "test seam: timer-generation and gossip-gating tests ask whether a timer is armed",
	"sim.Sharded.Pending":         "test seam: the sharded twin of Kernel.Pending",
	"sim.Sharded.SetSink":         "test seam: sharded-kernel tests capture deliveries without a machine",
	"sim.Sharded.Stop":            "test seam: window-boundary stop tests",
	"sim.RunResult.String":        "Stringer: kernel test failures print a run result by name",
	"expr.FreeVars":               "test oracle: instantiated bodies are asserted closed (§2.1) with it",
	"expr.HoleIDs":                "test oracle: flatten tests enumerate a residual's holes",
	"admission.Gate.InFlight":     "test seam: the gate table asserts occupancy between steps",
	"machine.Session.Outstanding": "test seam: stream tests assert the session emptied",
	"trace.Log.Count":             "test oracle: machine and admission tests count trace events of a kind",
	"core.Cluster.Drain":          "test seam: admission tests run a stream to quiescence before Close",
	"netnode.Cluster.Pids":        "test seam: the orphan-process tests check every child was reaped",
	"netnode.managedProc.Pid":     "called only by Cluster.Pids",
}

// surfaceFunc is one function declaration under internal/.
type surfaceFunc struct {
	name  string // expr.DecodeValue, sim.Kernel.Run
	file  string
	line  int
	lines int // doc comment included: what deleting it removes
}

func (f surfaceFunc) String() string {
	return fmt.Sprintf("%s (%s:%d, %d lines)", f.name, f.file, f.line, f.lines)
}

// surfaceFailures is the gate's whole decision: one line per function that
// no binary reaches and the allowlist does not excuse, a total, and one line
// per allowlist entry that is stale, reachable or unexplained.
func surfaceFailures(decls []surfaceFunc, reached map[string]bool, allow map[string]string) []string {
	var out []string
	declared := map[string]bool{}
	n, lines := 0, 0
	for _, f := range decls {
		declared[f.name] = true
		if _, ok := allow[f.name]; ok || reached[f.name] {
			continue
		}
		out = append(out, f.String())
		n++
		lines += f.lines
	}
	if n > 0 {
		out = append(out, fmt.Sprintf("total: %d functions, %d lines in no binary — delete them, or allowlist a test seam with its reason", n, lines))
	}
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch {
		case !declared[name]:
			out = append(out, fmt.Sprintf("allowlist: %s no longer exists — drop the entry", name))
		case reached[name]:
			out = append(out, fmt.Sprintf("allowlist: %s is reachable from a binary — drop the entry", name))
		case allow[name] == "":
			out = append(out, fmt.Sprintf("allowlist: %s has no reason", name))
		}
	}
	return out
}

func TestSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five binaries")
	}
	if len(surfaceAllow) > 30 {
		t.Errorf("allowlist has %d entries, at most 30", len(surfaceAllow))
	}
	decls, err := surfaceDecls("internal")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	const noInline = "-gcflags=repro/...=-l"
	surfaceRun(t, "go", "build", noInline, "-o", bin+"/", "./cmd/apsim", "./cmd/experiments", "./examples/quickstart", "./examples/live")
	surfaceRun(t, "go", "-C", "bench", "build", noInline, "-o", bin+"/bench", ".")
	reached := map[string]bool{}
	for _, name := range []string{"apsim", "experiments", "quickstart", "live", "bench"} {
		surfaceSymbols(surfaceRun(t, "go", "tool", "nm", filepath.Join(bin, name)), reached)
	}
	if fails := surfaceFailures(decls, reached, surfaceAllow); len(fails) > 0 {
		t.Errorf("surface gate:\n%s", strings.Join(fails, "\n"))
	}
}

// TestSurfaceGate checks the gate's decision on a hand-made surface, so a
// gate that stopped failing would itself fail.
func TestSurfaceGate(t *testing.T) {
	decls := []surfaceFunc{
		{"a.Used", "internal/a/a.go", 3, 4},
		{"a.Orphan", "internal/a/a.go", 9, 12},
		{"a.T.Seam", "internal/a/t.go", 5, 6},
		{"a.T.Grown", "internal/a/t.go", 20, 2},
		{"a.Bare", "internal/a/a.go", 30, 1},
	}
	reached := map[string]bool{"a.Used": true, "a.T.Grown": true}
	allow := map[string]string{
		"a.T.Seam":  "test seam",
		"a.T.Grown": "was a seam, now called from a binary",
		"a.Gone":    "deleted last PR",
		"a.Bare":    "",
	}
	want := []string{
		"a.Orphan (internal/a/a.go:9, 12 lines)",
		"total: 1 functions, 12 lines in no binary — delete them, or allowlist a test seam with its reason",
		"allowlist: a.Bare has no reason",
		"allowlist: a.Gone no longer exists — drop the entry",
		"allowlist: a.T.Grown is reachable from a binary — drop the entry",
	}
	got := surfaceFailures(decls, reached, allow)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	delete(allow, "a.T.Grown")
	delete(allow, "a.Gone")
	allow["a.Bare"] = "marker"
	allow["a.Orphan"] = "oracle"
	if got := surfaceFailures(decls, reached, allow); len(got) != 0 {
		t.Errorf("clean surface failed:\n%s", strings.Join(got, "\n"))
	}

	sym := map[string]bool{}
	surfaceSymbols([]byte(`  531a40 T repro/internal/registry.(*Registry[go.shape.func() repro/internal/recovery.Scheme]).Get
  531c20 T repro/internal/registry.(*Registry[go.shape.func() repro/internal/recovery.Scheme]).Get.deferwrap1
  4a0000 T repro/internal/stamp.Stamp.Child
  4a0100 t repro/internal/sim.(*Kernel).Run
  4a0200 D repro/internal/sim.table
         U runtime.memmove
`), sym)
	for _, name := range []string{"registry.Registry.Get", "stamp.Stamp.Child", "sim.Kernel.Run"} {
		if !sym[name] {
			t.Errorf("symbol table: %s not read; got %v", name, sym)
		}
	}
	if sym["sim.table"] {
		t.Error("symbol table: a data symbol counted as a function")
	}
}

func surfaceRun(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	out, err := exec.Command(name, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return out
}

// surfaceDecls lists every function and method declared in a non-test Go
// file under root, named as surfaceSymbols names the linker's symbols.
func surfaceDecls(root string) ([]surfaceFunc, error) {
	var out []surfaceFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg := filepath.ToSlash(rel)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			name := pkg + "."
			if fd.Recv != nil {
				name += surfaceRecv(fd.Recv.List[0].Type) + "."
			}
			start := fd.Pos()
			if fd.Doc != nil {
				start = fd.Doc.Pos()
			}
			out = append(out, surfaceFunc{
				name:  name + fd.Name.Name,
				file:  filepath.ToSlash(path),
				line:  fset.Position(fd.Pos()).Line,
				lines: fset.Position(fd.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	return out, err
}

// surfaceRecv is a receiver's type name without its pointer and type
// parameters: *Registry[T] → Registry.
func surfaceRecv(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic(fmt.Sprintf("receiver %T", e))
		}
	}
}

// surfaceSymbols adds to reached the text symbols of one `go tool nm`
// listing that belong to internal/, reduced to the declaration's name:
// repro/internal/sim.(*Kernel).Run → sim.Kernel.Run, and a generic
// instantiation's bracketed type arguments dropped.
func surfaceSymbols(nm []byte, reached map[string]bool) {
	for _, line := range strings.Split(string(nm), "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		var b strings.Builder
		depth := 0
		for _, r := range f[2] {
			switch {
			case r == '[':
				depth++
			case r == ']':
				depth--
			case depth == 0 && r != '(' && r != ')' && r != '*':
				b.WriteRune(r)
			}
		}
		if name, ok := strings.CutPrefix(b.String(), "repro/internal/"); ok {
			reached[name] = true
		}
	}
}
