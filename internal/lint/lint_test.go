package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testLoader typechecks testdata packages from source, resolving every
// import (including "sync") from testdata/src — a miniature GOPATH.
type testLoader struct {
	fset  *token.FileSet
	root  string
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
}

func newTestLoader(t *testing.T) *testLoader {
	t.Helper()
	return &testLoader{
		fset:  token.NewFileSet(),
		root:  filepath.Join("testdata", "src"),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
	}
}

func (l *testLoader) Import(path string) (*types.Package, error) { return l.load(path) }

func (l *testLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("testdata package %q: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %q: %v", path, err)
	}
	l.pkgs[path], l.infos[path], l.files[path] = pkg, info, files
	return pkg, nil
}

// wantRe matches the `// want `+"`regexp`"+“ convention on testdata lines.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type diag struct {
	file string
	line int
	msg  string
}

// runAnalyzer loads the package and returns the diagnostics the analyzer
// produced, keyed by file basename and line.
func runAnalyzer(t *testing.T, l *testLoader, a *Analyzer, path string) []diag {
	t.Helper()
	pkg, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	var diags []diag
	pass := &Pass{
		Analyzer: a, Fset: l.fset, Files: l.files[path], Pkg: pkg, Info: l.infos[path],
		report: func(pos token.Pos, msg string) {
			p := l.fset.Position(pos)
			diags = append(diags, diag{filepath.Base(p.Filename), p.Line, msg})
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, path, err)
	}
	return diags
}

// wants extracts the expected-diagnostic annotations of a loaded package.
func wants(l *testLoader, path string) []diag {
	var out []diag
	for _, f := range l.files[path] {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := l.fset.Position(c.Pos())
				out = append(out, diag{filepath.Base(p.Filename), p.Line, m[1]})
			}
		}
	}
	return out
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
	}{
		{DispatchThrough, "a/internal/mal"},
		{DispatchThrough, "a/other"}, // out of scope: must stay silent
		{EnqueueCheck, "b/internal/core"},
		{ReleasePair, "c/internal/core"},
		{ConsumerNote, "f/internal/core"},
		{LockOrder, "e/internal/mal"},
		{LockOrder, "e/internal/serve"},
	}
	l := newTestLoader(t)
	for _, tc := range cases {
		t.Run(tc.analyzer.Name+"/"+tc.path, func(t *testing.T) {
			got := runAnalyzer(t, l, tc.analyzer, tc.path)
			want := wants(l, tc.path)
			sort.Slice(got, func(i, j int) bool { return got[i].line < got[j].line })

			matched := make([]bool, len(got))
			for _, w := range want {
				re, err := regexp.Compile(w.msg)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", w.file, w.line, w.msg, err)
				}
				ok := false
				for i, g := range got {
					if !matched[i] && g.file == w.file && g.line == w.line && re.MatchString(g.msg) {
						matched[i], ok = true, true
						break
					}
				}
				if !ok {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.msg)
				}
			}
			for i, g := range got {
				if !matched[i] {
					t.Errorf("%s:%d: unexpected diagnostic %q", g.file, g.line, g.msg)
				}
			}
		})
	}
}

// TestAnalyzerScope: every analyzer ignores packages outside its path
// scope entirely, even when the code would otherwise trip it.
func TestAnalyzerScope(t *testing.T) {
	l := newTestLoader(t)
	for _, a := range []*Analyzer{EnqueueCheck, ReleasePair, ConsumerNote, LockOrder} {
		if got := runAnalyzer(t, l, a, "a/other"); len(got) != 0 {
			t.Errorf("%s reported %d diagnostics outside its scope", a.Name, len(got))
		}
	}
}
