// Package lint implements the taskdep static-analysis engine behind
// cmd/taskdeplint: a self-contained analyzer framework (package loading
// via go/parser, best-effort type checking through a stub importer, a
// rule registry with per-rule enable/disable, rule-scoped suppression
// comments, JSON and SARIF output) plus the rules themselves — the
// API-misuse checks, the unprovided-consume window check for the
// typed values facade, and the dep-coverage dataflow analysis that
// cross-checks declared In/Out/InOut/InOutSet keys against the effect
// set of each task body. See doc.go for the rule catalogue and the
// soundness model.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one reported issue.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// Rule names. Every check registers here; Options.Enable/Disable and
// ignore comments refer to these names.
const (
	RuleLoopCapture       = "loop-capture"
	RuleUseAfterClose     = "use-after-close"
	RuleFulfillNil        = "fulfill-nil-event"
	RuleDroppedError      = "dropped-error"
	RuleSpanNoEnd         = "span-no-end"
	RuleUndeclaredWrite   = "undeclared-write"
	RuleUndeclaredRead    = "undeclared-read"
	RuleStaleDep          = "stale-dep"
	RuleUnprovidedConsume = "unprovided-consume"
	RuleUnusedIgnore      = "unused-ignore"
)

// RuleInfo describes one registered rule for -list and SARIF metadata.
type RuleInfo struct {
	Name string
	Doc  string
}

// Rules returns the registry in stable order.
func Rules() []RuleInfo {
	return []RuleInfo{
		{RuleLoopCapture, "a Spec body closure captures a variable an enclosing loop writes while the body can still run: declared outside the loop and written in it, or declared inside and written after the Spec is built"},
		{RuleUseAfterClose, "Submit/Taskwait/Persistent/Record/Replay on a runtime after Close() in the same function"},
		{RuleFulfillNil, "Fulfill on the result of a Submit whose Spec is not Detached (Submit returns nil)"},
		{RuleDroppedError, "a Spec Do closure that blank-discards a call result while every return is `return nil` — the task can never fail"},
		{RuleSpanNoEnd, "a BeginSpan result that is never End()ed, or leaks past an early return with no deferred End"},
		{RuleUndeclaredWrite, "the task body mutates shared captured state reachable from no declared Out/InOut/InOutSet key — a latent race the dynamic verifier may never see"},
		{RuleUndeclaredRead, "the task body reads state a same-scope Spec writes, with no key connecting them"},
		{RuleStaleDep, "a declared key whose associated state the body provably never touches — over-declaration that serializes the graph"},
		{RuleUnprovidedConsume, "a submitted dataflow Spec Consumes a freshly bound slot no earlier task in the submission window Provides or Updates and no Set primes — the In dependence has no writer, so the body reads an empty slot"},
		{RuleUnusedIgnore, "a taskdeplint:ignore comment that no longer suppresses anything"},
	}
}

// knownRule reports whether name is a registered rule.
func knownRule(name string) bool {
	for _, r := range Rules() {
		if r.Name == name {
			return true
		}
	}
	return false
}

// Options selects the rule set for a run. With an empty Enable list
// every rule runs; Disable subtracts from whichever base set Enable
// produced.
type Options struct {
	Enable  []string
	Disable []string
}

// enabledSet resolves Options into the active rule set, validating
// names.
func (o Options) enabledSet() (map[string]bool, error) {
	on := map[string]bool{}
	if len(o.Enable) == 0 {
		for _, r := range Rules() {
			on[r.Name] = true
		}
	} else {
		for _, n := range o.Enable {
			if !knownRule(n) {
				return nil, fmt.Errorf("unknown rule %q", n)
			}
			on[n] = true
		}
	}
	for _, n := range o.Disable {
		if !knownRule(n) {
			return nil, fmt.Errorf("unknown rule %q", n)
		}
		delete(on, n)
	}
	return on, nil
}

// restricted reports whether the run's rule set was narrowed from the
// default; unused-ignore stays quiet for directives it cannot judge in
// a narrowed run.
func (o Options) restricted() bool {
	return len(o.Enable) > 0 || len(o.Disable) > 0
}

// ExpandPatterns resolves CLI arguments to a sorted list of directories
// containing Go files. "dir/..." walks recursively, skipping testdata,
// vendor, and hidden/underscore directories (the go tool's convention).
func ExpandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			root := filepath.Clean(rest)
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if ok, _ := hasGoFiles(path); ok {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", p)
		}
		add(filepath.Clean(p))
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// LintDir parses every .go file in dir, groups files by package clause
// (a directory may hold both "foo" and "foo_test"), type-checks each
// group best-effort, and lints it with the rule set opts selects.
func LintDir(dir string, opts Options) ([]Finding, error) {
	enabled, err := opts.enabledSet()
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	groups := map[string][]*ast.File{}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			// A file that does not parse cannot be linted; surface the
			// error rather than silently reporting the package clean.
			return nil, err
		}
		if f.Name.Name == "" {
			continue
		}
		name := f.Name.Name
		if _, ok := groups[name]; !ok {
			names = append(names, name)
		}
		groups[name] = append(groups[name], f)
	}
	sort.Strings(names)

	var finds []Finding
	for _, name := range names {
		files := groups[name]
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{
			Importer:         stubImporter{fallback: importer.Default()},
			Error:            func(error) {}, // best-effort: stub imports leave holes
			FakeImportC:      true,
			IgnoreFuncBodies: false,
		}
		pkg, _ := conf.Check(dir, fset, files, info) // error intentionally ignored
		finds = append(finds, lintPackage(fset, files, info, pkg, enabled, opts.restricted())...)
	}
	sort.Slice(finds, func(i, j int) bool {
		a, b := finds[i].Pos, finds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return finds, nil
}

// stubImporter satisfies imports without loading source: standard-
// library packages come from the compiler's export data when available;
// anything else becomes an empty placeholder package. The type checker
// then reports unresolved selectors through conf.Error, which we drop —
// the lint rules only need object identity within the linted package
// plus import paths for qualifiers.
type stubImporter struct {
	fallback types.Importer
}

func (s stubImporter) Import(path string) (*types.Package, error) {
	if s.fallback != nil && !strings.Contains(path, ".") && isStdlibish(path) {
		if pkg, err := s.fallback.Import(path); err == nil {
			return pkg, nil
		}
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	return pkg, nil
}

// isStdlibish guesses whether path is a standard-library import (no dot
// in the first element, e.g. "go/types" yes, "github.com/x/y" no).
func isStdlibish(path string) bool {
	first := path
	if i := strings.IndexByte(first, '/'); i >= 0 {
		first = first[:i]
	}
	return !strings.Contains(first, ".")
}

// --- suppression machinery ---

const ignoreMarker = "taskdeplint:ignore"

// ignoreDirective is one taskdeplint:ignore comment. A bare directive
// suppresses every rule on its line and the next; a directive followed
// by a comma-separated rule list ("taskdeplint:ignore stale-dep,
// undeclared-read") suppresses only those rules.
type ignoreDirective struct {
	pos   token.Position
	rules map[string]bool // nil = suppress all
	used  bool
}

func (d *ignoreDirective) covers(rule string) bool {
	return d.rules == nil || d.rules[rule]
}

// parseIgnores extracts the ignore directives of one file, keyed by
// line.
func parseIgnores(fset *token.FileSet, f *ast.File) map[int]*ignoreDirective {
	out := map[int]*ignoreDirective{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			i := strings.Index(c.Text, ignoreMarker)
			if i < 0 {
				continue
			}
			// A comment is a directive in exactly three shapes: the
			// marker leads the comment ("// taskdeplint:ignore ..."),
			// ends it ("... prose. taskdeplint:ignore" — the historical
			// bare form), or is followed by a rule list. Anything else
			// — docs QUOTING the marker mid-prose — is not a directive.
			lead := strings.TrimLeft(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), " \t")
			atStart := strings.HasPrefix(lead, ignoreMarker)
			rest := strings.TrimSpace(strings.TrimSuffix(c.Text[i+len(ignoreMarker):], "*/"))
			var rules map[string]bool
			if tok, _, _ := strings.Cut(rest, " "); tok != "" {
				// The token immediately after the marker scopes the
				// directive when (and only when) every comma-separated
				// part is a known rule name; otherwise the trailing
				// text is prose and the directive stays suppress-all.
				tok = strings.TrimSuffix(tok, ".")
				parts := strings.Split(tok, ",")
				all := true
				for _, p := range parts {
					if !knownRule(strings.TrimSpace(p)) {
						all = false
						break
					}
				}
				if all {
					rules = map[string]bool{}
					for _, p := range parts {
						rules[strings.TrimSpace(p)] = true
					}
				}
			}
			if rest != "" && rules == nil && !atStart {
				continue // prose mention, not a directive
			}
			d := &ignoreDirective{pos: fset.Position(c.Pos()), rules: rules}
			out[d.pos.Line] = d
		}
	}
	return out
}

// lintPackage analyzes one type-checked package (possibly with ignored
// type errors) and returns its findings with suppression applied and
// unused-ignore findings appended.
func lintPackage(fset *token.FileSet, files []*ast.File, info *types.Info, pkg *types.Package, enabled map[string]bool, restricted bool) []Finding {
	l := &pkgLint{fset: fset, info: info, pkg: pkg, enabled: enabled}
	for _, f := range files {
		l.lintFile(f, restricted)
	}
	return l.finds
}

type pkgLint struct {
	fset    *token.FileSet
	info    *types.Info
	pkg     *types.Package
	enabled map[string]bool
	finds   []Finding
}

func (l *pkgLint) on(rule string) bool { return l.enabled[rule] }

func (l *pkgLint) report(pos token.Pos, rule, format string, args ...any) {
	if !l.on(rule) {
		return
	}
	l.finds = append(l.finds, Finding{
		Pos:  l.fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

func (l *pkgLint) lintFile(f *ast.File, restricted bool) {
	ignores := parseIgnores(l.fset, f)
	before := len(l.finds)

	// Dep-coverage cross-checks, one scope per function body.
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			l.depCoverageScope(nil, fd.Body)
		}
	}

	// Spec-literal rules, with the enclosing-node stack for loop context.
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.CompositeLit); ok && isSpecLit(lit) {
			l.checkLoopCapture(lit, stack)
			l.checkDroppedError(lit)
		}
		stack = append(stack, n)
		return true
	})

	// Sequential rules, one context per function body.
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			l.seqLint(fd.Body, map[types.Object]bool{})
			l.checkSpanNoEnd(fd.Body)
			l.checkUnprovidedConsume(fd.Body)
		}
	}

	// Suppression: a directive on the finding's line or the line above
	// absorbs findings for the rules it covers.
	kept := l.finds[:before]
	for _, fd := range l.finds[before:] {
		suppressed := false
		for _, line := range []int{fd.Pos.Line, fd.Pos.Line - 1} {
			if d := ignores[line]; d != nil && d.covers(fd.Rule) {
				d.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, fd)
		}
	}
	l.finds = kept

	// Unused directives: an ignore comment that suppressed nothing is
	// stale — either the flaw was fixed or the rule name rotted. Skip
	// directives this run cannot judge (their rules disabled, or a bare
	// directive in a narrowed run), and directives that name
	// unused-ignore themselves (the self-silencing form).
	if !l.on(RuleUnusedIgnore) {
		return
	}
	var lines []int
	for line := range ignores {
		lines = append(lines, line)
	}
	sort.Ints(lines)
	for _, line := range lines {
		d := ignores[line]
		if d.used {
			continue
		}
		if d.rules == nil {
			if restricted {
				continue
			}
		} else {
			if d.rules[RuleUnusedIgnore] {
				continue
			}
			judgeable := false
			for r := range d.rules {
				if l.enabled[r] {
					judgeable = true
				}
			}
			if !judgeable {
				continue
			}
		}
		l.finds = append(l.finds, Finding{
			Pos:  d.pos,
			Rule: RuleUnusedIgnore,
			Msg:  "taskdeplint:ignore comment suppresses nothing — the finding it silenced is gone; delete the comment (or scope it to a rule that still fires)",
		})
	}
}
