// Package lint is a dependency-free go/analysis-style framework plus the
// five repo-specific analyzers behind cmd/ocelotlint. The x/tools analysis
// machinery is deliberately not used: the module has no external
// dependencies, so the tiny subset the analyzers need — an Analyzer
// descriptor, a per-package Pass with type information, and the `go vet
// -vettool` unitchecker wire protocol — is implemented here on the standard
// library only (go/ast, go/types, go/importer).
//
// Analyzers:
//
//   - dispatchthrough: internal/mal and internal/serve must route operator
//     calls through hybrid.Engine.On, never directly through Dev.Eng.
//   - enqueuecheck: internal/core and internal/monet must not drop errors
//     from calls that return one (kernel launches, enqueues).
//   - releasepair: scratch/BAT acquisitions in internal/core need a release
//     on every path, an ownership transfer, or a `//lint:transfer` marker.
//   - consumernote: a function in internal/core that obtains a BAT's device
//     buffer for reading must note a consumer event on that BAT (recycled
//     bytes make an unrecorded reader a use-after-free).
//   - lockorder: internal/serve and the mal plan cache must not call into
//     plan execution while holding the plan-cache or flight-map locks.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The subset of the x/tools analysis
// API the unitchecker and tests need: a name for -<name>=false flags and
// diagnostics, a doc string, and a per-package entry point.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// report collects a diagnostic; installed by the driver.
	report func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// All lists every analyzer ocelotlint runs, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DispatchThrough,
		EnqueueCheck,
		ReleasePair,
		ConsumerNote,
		LockOrder,
	}
}

// pathHasSuffix reports whether the import path of pkg ends in one of the
// given suffixes (segment-aligned). Matching by suffix instead of equality
// makes the analyzers work unchanged on the real module path and on the
// fake testdata import paths (e.g. both "repro/internal/mal" and
// "a/internal/mal" are internal/mal packages).
func pathHasSuffix(pkg *types.Package, suffixes ...string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	for _, s := range suffixes {
		if p == s || strings.HasSuffix(p, "/"+s) {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers and aliases down to the *types.Named beneath t,
// or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t (through pointers/aliases) is the named type
// `name` declared in a package whose path ends in pkgSuffix.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	return n.Obj().Name() == name && pathHasSuffix(n.Obj().Pkg(), pkgSuffix)
}

// typeHasError reports whether t is or contains (as a tuple member) the
// built-in error type.
func typeHasError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if typeHasError(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
