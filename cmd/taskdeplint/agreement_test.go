package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/lint"
	"taskdep/internal/rt"
	"taskdep/internal/verify"
)

// The trsm dependence declaration this test deletes from the real
// Cholesky app source. The needle pins the exact block so the mutation
// fails loudly if the app is ever reformatted.
const (
	trsmNeedle = "\t\t\t\tLabel: \"trsm\",\n" +
		"\t\t\t\tIn:    []graph.Key{tileKey(k, k)},\n" +
		"\t\t\t\tInOut: []graph.Key{tileKey(i, k)},\n"
	trsmMutated = "\t\t\t\tLabel: \"trsm\",\n" +
		"\t\t\t\tIn:    []graph.Key{tileKey(k, k)},\n"
)

// tileKey mirrors apps/cholesky's key scheme so the dynamic half of
// the agreement test speaks about the same keys the app declares.
func tileKey(i, j int) graph.Key { return graph.Key(1<<60 | uint64(i)<<24 | uint64(j)) }

// TestDeletedDepAgreement is the acceptance demo for the dep-coverage
// analysis: delete the Cholesky trsm task's InOut panel key and show
// that (a) taskdeplint catches it statically, at the trsm Spec literal,
// on every run; (b) the runtime's declaration-based verifier audits the
// mutated graph CLEAN — the deleted declaration removes the access from
// the verifier's view entirely, so the race is latent dynamically; and
// (c) handing the same verifier the task's true effect set (exactly
// what the static analyzer computed from the body) produces a Race on
// the same task label and the same tile key the static finding names.
// Static position and dynamic race witness agree.
func TestDeletedDepAgreement(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "apps", "cholesky", "cholesky.go"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), trsmNeedle); n != 1 {
		t.Fatalf("trsm needle occurs %d times in cholesky.go, want 1 (source drifted?)", n)
	}

	// Control: the unmodified app lints clean.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "cholesky.go"), string(src))
	finds, err := lint.LintDir(dir, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range finds {
		t.Errorf("unmodified cholesky flagged: %s", f)
	}

	// --- static half: delete the InOut declaration, lint again.
	mut := strings.Replace(string(src), trsmNeedle, trsmMutated, 1)
	mdir := t.TempDir()
	mpath := filepath.Join(mdir, "cholesky.go")
	writeFile(t, mpath, mut)
	finds, err = lint.LintDir(mdir, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(finds) != 1 {
		for _, f := range finds {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("mutated cholesky produced %d findings, want exactly 1", len(finds))
	}
	f := finds[0]
	if f.Rule != lint.RuleUndeclaredWrite {
		t.Fatalf("finding rule = %s, want %s", f.Rule, lint.RuleUndeclaredWrite)
	}
	if !strings.Contains(f.Msg, "m.Tile") {
		t.Errorf("finding does not name the tile access: %s", f.Msg)
	}

	// The finding must sit on the Spec literal labeled "trsm" in the
	// mutated source.
	specLine, specLabel := specLiteralWithLabel(t, mpath, "trsm")
	if f.Pos.Line != specLine {
		t.Fatalf("finding at line %d, trsm Spec literal at line %d", f.Pos.Line, specLine)
	}

	// --- dynamic half: execute the mutated factorization graph under
	// Config.Verify and audit it.
	const tiles = 3
	var tile [tiles * tiles]atomic.Int64 // shared panel state the bodies really touch

	type decl struct {
		label string
		truth []graph.Dep // declared deps + the deleted ground-truth access
	}
	var subs []decl
	r, err := rt.NewRuntime(rt.Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Full})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	submit := func(s rt.Spec, extra ...graph.Dep) {
		d := decl{label: s.Label}
		for _, k := range s.In {
			d.truth = append(d.truth, graph.Dep{Key: k, Type: graph.In})
		}
		for _, k := range s.Out {
			d.truth = append(d.truth, graph.Dep{Key: k, Type: graph.Out})
		}
		for _, k := range s.InOut {
			d.truth = append(d.truth, graph.Dep{Key: k, Type: graph.InOut})
		}
		d.truth = append(d.truth, extra...)
		subs = append(subs, d)
		r.Submit(s)
	}

	// Mirror apps/cholesky taskFactorInto with the trsm InOut deleted,
	// exactly as the mutated source declares it. Bodies use atomics so
	// the broken ordering cannot corrupt the test binary itself.
	for k := 0; k < tiles; k++ {
		k := k
		submit(rt.Spec{
			Label: "potrf",
			InOut: []graph.Key{tileKey(k, k)},
			Body:  func(any) { tile[k*tiles+k].Add(1) },
		})
		for i := k + 1; i < tiles; i++ {
			i := i
			// The mutation under test: trsm really writes tile (i,k) but
			// no longer declares it. The true effect set — what the
			// static analyzer recovered from the body — is passed
			// alongside for the ground-truth audit below.
			submit(rt.Spec{
				Label: "trsm",
				In:    []graph.Key{tileKey(k, k)},
				Body:  func(any) { tile[i*tiles+k].Add(tile[k*tiles+k].Load()) },
			}, graph.Dep{Key: tileKey(i, k), Type: graph.InOut})
		}
		for i := k + 1; i < tiles; i++ {
			i := i
			submit(rt.Spec{
				Label: "syrk",
				In:    []graph.Key{tileKey(i, k)},
				InOut: []graph.Key{tileKey(i, i)},
				Body:  func(any) { tile[i*tiles+i].Add(tile[i*tiles+k].Load()) },
			})
			for j := k + 1; j < i; j++ {
				j := j
				submit(rt.Spec{
					Label: "gemm",
					In:    []graph.Key{tileKey(i, k), tileKey(j, k)},
					InOut: []graph.Key{tileKey(i, j)},
					Body:  func(any) { tile[i*tiles+j].Add(tile[i*tiles+k].Load() * tile[j*tiles+k].Load()) },
				})
			}
		}
	}
	if err := r.Taskwait(); err != nil {
		t.Fatal(err)
	}

	// (b) The declaration-based audit sees nothing: with the InOut
	// deleted, the trsm access appears in no key's sequence, so no
	// conflicting pair exists for the verifier to test. This is the
	// blind spot the static pass closes.
	rep := r.Verify()
	if rep == nil {
		t.Fatal("no verify report")
	}
	if len(rep.Races) != 0 {
		t.Fatalf("declaration-based audit of the mutated graph reported races %v; expected the deleted dep to be invisible", rep.Races)
	}
	if len(rep.Nodes) < len(subs) {
		t.Fatalf("audit saw %d nodes, submitted %d", len(rep.Nodes), len(subs))
	}

	// (c) Re-audit the same executed graph with the trsm tasks' TRUE
	// effect sets. Audit is the engine behind Config.Verify; the only
	// change is that trsm's deleted write is back in view.
	infos := make([]verify.TaskInfo, len(subs))
	for i, d := range subs {
		n := rep.Nodes[i]
		if n.Label != d.label {
			t.Fatalf("node %d label %q, submitted %q (submission order broken)", i, n.Label, d.label)
		}
		infos[i] = verify.TaskInfo{Task: n, Deps: d.truth}
	}
	truth := verify.Audit(infos, rep.Opts, nil)
	if len(truth.Races) == 0 {
		t.Fatal("ground-truth audit found no races; expected the undeclared trsm write to surface")
	}

	// Agreement: some reported race involves a task whose label matches
	// the Spec literal the static finding sits on, racing on a panel
	// tile key tileKey(i,k) — the very state the static message names.
	panelKeys := map[graph.Key]bool{}
	for k := 0; k < tiles; k++ {
		for i := k + 1; i < tiles; i++ {
			panelKeys[tileKey(i, k)] = true
		}
	}
	agree := false
	for _, rc := range truth.Races {
		if (rc.A.Label == specLabel || rc.B.Label == specLabel) && panelKeys[rc.Key] {
			agree = true
			break
		}
	}
	if !agree {
		t.Fatalf("no race names the %q task on a panel key; races: %v", specLabel, truth.Races)
	}
	for _, rc := range truth.Races {
		if rc.A.Label != specLabel && rc.B.Label != specLabel {
			t.Errorf("unexpected race away from the seeded defect: %v", rc)
		}
	}
}

// specLiteralWithLabel parses file and returns the line of the Spec
// composite literal whose Label field is the given string, plus the
// label itself (round-tripped through the AST).
func specLiteralWithLabel(t *testing.T, file, label string) (int, string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Label" {
				continue
			}
			bl, ok := kv.Value.(*ast.BasicLit)
			if !ok {
				continue
			}
			if s, err := strconv.Unquote(bl.Value); err == nil && s == label && line == 0 {
				line = fset.Position(lit.Pos()).Line
			}
		}
		return true
	})
	if line == 0 {
		t.Fatalf("no Spec literal labeled %q in %s", label, file)
	}
	return line, label
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
