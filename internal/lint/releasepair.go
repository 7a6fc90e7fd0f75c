package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReleasePair flags buffer acquisitions in internal/core that can leak: a
// buffer obtained from the Memory Manager's allocator (Alloc) or
// spine must, within the acquiring function, either be released on every path (a call whose name mentions
// release/free taking the value, or a .Release() on it), transfer
// ownership out (returned, stored into a field/slice/map, appended into an
// escaping slice), or carry an explicit `//lint:transfer` marker comment
// on or immediately above the acquisition. It also flags early returns
// that exit between the acquisition and its release without the value
// escaping through them.
//
// The check is flow-insensitive by design; the marker comment is the
// documented escape hatch for ownership transfers the heuristics cannot
// see (see DESIGN.md, "Static analysis").
var ReleasePair = &Analyzer{
	Name: "releasepair",
	Doc:  "flag scratch/BAT acquisitions in internal/core without a release on every path or an ownership transfer",
	Run:  runReleasePair,
}

// acquireFuncs names the callees whose result the analyzer tracks.
var acquireFuncs = map[string]bool{"Alloc": true, "spine": true}

func runReleasePair(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg, "internal/core") {
		return nil
	}
	for _, f := range pass.Files {
		markers := transferMarkers(pass.Fset, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkReleasePairs(pass, fn, markers)
		}
	}
	return nil
}

// transferMarkers returns the set of line numbers carrying a
// `//lint:transfer` comment.
func transferMarkers(fset *token.FileSet, f *ast.File) map[int]bool {
	m := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), "//lint:transfer") {
				m[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return m
}

type acquireSite struct {
	obj  types.Object // the acquired variable
	name string       // its source name
	call string       // the acquiring callee, for diagnostics
	pos  token.Pos
}

func checkReleasePairs(pass *Pass, fn *ast.FuncDecl, markers map[int]bool) {
	var acquires []acquireSite
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeName(call)
		if !acquireFuncs[callee] || isPackageCall(pass, call) {
			return true // mem.Alloc returns host bytes, not a device buffer
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		acquires = append(acquires, acquireSite{obj: obj, name: id.Name, call: callee, pos: as.Pos()})
		return true
	})
	if len(acquires) == 0 {
		return
	}

	blocks := collectBlocks(fn.Body)
	for _, acq := range acquires {
		line := pass.Fset.Position(acq.pos).Line
		if markers[line] || markers[line-1] {
			continue
		}
		releases, transferred, returns, firstUse := scanAcquire(pass, fn, acq)
		if transferred {
			continue
		}
		if len(releases) == 0 {
			pass.Reportf(acq.pos,
				"%s acquired from %s is never released or transferred; release it on every path or mark the acquisition //lint:transfer",
				acq.name, acq.call)
			continue
		}
		lastRelease := releases[len(releases)-1]
		for _, ret := range returns {
			if ret.pos <= acq.pos || ret.pos >= lastRelease || ret.mentions {
				continue
			}
			// The acquire's own failure guard: the return fires before the
			// value is ever used, i.e. only on the path where the
			// acquisition itself failed and there is nothing to release.
			if firstUse != token.NoPos && ret.pos < firstUse {
				continue
			}
			// A release on the path: some release site lies in the
			// innermost block enclosing that release AND that block also
			// spans the return — i.e. the return is preceded by a release
			// in straight-line scope.
			if releasedOnPath(blocks, releases, ret.pos) {
				continue
			}
			pass.Reportf(ret.pos,
				"return leaks %s (acquired from %s at line %d): no release on this path and the value does not escape through the return",
				acq.name, acq.call, line)
		}
	}
}

// isPackageCall reports whether call is a package-qualified function call
// (pkg.F) rather than a method call or a local function.
func isPackageCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pass.Info.Uses[id].(*types.PkgName)
	return isPkg
}

// calleeName extracts the bare called-function name of call.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

type retSite struct {
	pos      token.Pos
	mentions bool
}

// scanAcquire walks fn once for everything the per-acquire verdicts need:
// release positions, whether ownership transfers out, every return
// statement, and the first use of the value after the acquisition.
func scanAcquire(pass *Pass, fn *ast.FuncDecl, acq acquireSite) (releases []token.Pos, transferred bool, returns []retSite, firstUse token.Pos) {
	usesObj := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == acq.obj {
				found = true
			}
			return !found
		})
		return found
	}
	// Assignment targets are writes, not uses: `out, err = alloc()` in a
	// second branch must not count as the first use when deciding whether
	// an early return is the acquisition's own failure guard.
	assigned := map[token.Pos]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					assigned[id.Pos()] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.Ident:
			if pass.Info.ObjectOf(st) == acq.obj && st.Pos() > acq.pos && !assigned[st.Pos()] &&
				(firstUse == token.NoPos || st.Pos() < firstUse) {
				firstUse = st.Pos()
			}
		case *ast.CallExpr:
			name := calleeName(st)
			low := strings.ToLower(name)
			if strings.Contains(low, "release") || strings.Contains(low, "free") {
				// v.Release() or anything(v, ...) whose name says release.
				if sel, ok := st.Fun.(*ast.SelectorExpr); ok && usesObj(sel.X) {
					releases = append(releases, st.Pos())
					return true
				}
				for _, a := range st.Args {
					if usesObj(a) {
						releases = append(releases, st.Pos())
						return true
					}
				}
			}
			// Bind* calls (BindValues, BindBitmap) hand the buffer to a
			// result BAT whose lifecycle the memory manager now owns — the
			// repo's ownership-transfer convention.
			if strings.HasPrefix(name, "Bind") {
				for _, a := range st.Args {
					if usesObj(a) {
						transferred = true
					}
				}
			}
		case *ast.ReturnStmt:
			r := retSite{pos: st.Pos()}
			for _, e := range st.Results {
				if usesObj(e) {
					r.mentions = true
					transferred = true
				}
			}
			returns = append(returns, r)
		case *ast.AssignStmt:
			// Ownership escapes when the value lands in a field, slice
			// element, map entry or dereference (including via append whose
			// result is stored there).
			for i, rhs := range st.Rhs {
				if !usesObj(rhs) {
					continue
				}
				lhs := st.Lhs[0]
				if len(st.Lhs) == len(st.Rhs) {
					lhs = st.Lhs[i]
				}
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					transferred = true
				}
			}
		}
		return true
	})
	// Keep releases sorted by position; ast.Inspect visits in source order
	// within a file, which is already positional for one function.
	return releases, transferred, returns, firstUse
}

// blockSpan is the source interval of one *ast.BlockStmt.
type blockSpan struct{ lo, hi token.Pos }

func collectBlocks(body *ast.BlockStmt) []blockSpan {
	var spans []blockSpan
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BlockStmt); ok {
			spans = append(spans, blockSpan{b.Pos(), b.End()})
		}
		return true
	})
	return spans
}

// releasedOnPath reports whether some release site dominates retPos in the
// straight-line sense: the innermost block containing the release also
// contains the return, and the release comes first.
func releasedOnPath(blocks []blockSpan, releases []token.Pos, retPos token.Pos) bool {
	for _, rel := range releases {
		if rel >= retPos {
			continue
		}
		inner := blockSpan{}
		for _, b := range blocks {
			if b.lo <= rel && rel <= b.hi {
				if inner.lo == token.NoPos || (b.lo >= inner.lo && b.hi <= inner.hi) {
					inner = b
				}
			}
		}
		if inner.lo != token.NoPos && inner.lo <= retPos && retPos <= inner.hi {
			return true
		}
	}
	return false
}
