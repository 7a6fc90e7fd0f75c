package lint

import (
	"go/ast"
	"go/types"
)

// DispatchThrough flags operator calls in internal/mal and internal/serve
// that reach a device engine directly through hybrid's Dev.Eng field
// instead of dispatching through hybrid.Engine.On. Direct calls bypass
// placement accounting, the fallback chain and the per-device views the
// hybrid engine maintains, so only the hybrid package itself may make
// them. Non-operator maintenance methods (Device, Memory, Finish, ...)
// are deliberately allowed: placement reads each device's constants
// through them.
var DispatchThrough = &Analyzer{
	Name: "dispatchthrough",
	Doc:  "flag direct Dev.Eng operator calls that bypass hybrid.Engine.On in internal/mal and internal/serve",
	Run:  runDispatchThrough,
}

func runDispatchThrough(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg, "internal/mal", "internal/serve") {
		return nil
	}
	operators := operatorMethodSet(pass.Pkg)
	if operators == nil {
		return nil // package graph has no ops.Operators; nothing to check
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			outer, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			inner, ok := outer.X.(*ast.SelectorExpr)
			if !ok || inner.Sel.Name != "Eng" {
				return true
			}
			if !isNamed(pass.Info.TypeOf(inner.X), "internal/hybrid", "Dev") {
				return true
			}
			if !operators[outer.Sel.Name] {
				return true
			}
			pass.Reportf(call.Pos(),
				"operator %s called directly on Dev.Eng; dispatch through hybrid.Engine.On so placement and fallback accounting see it",
				outer.Sel.Name)
			return true
		})
	}
	return nil
}

// operatorMethodSet walks the import graph of pkg for the internal/ops
// package and returns the method names of its Operators interface.
func operatorMethodSet(pkg *types.Package) map[string]bool {
	ops := findImport(pkg, "internal/ops")
	if ops == nil {
		return nil
	}
	obj := ops.Scope().Lookup("Operators")
	if obj == nil {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	m := make(map[string]bool, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		m[iface.Method(i).Name()] = true
	}
	return m
}

// findImport breadth-first searches the import graph of pkg for a package
// whose path ends in suffix.
func findImport(pkg *types.Package, suffix string) *types.Package {
	seen := map[*types.Package]bool{pkg: true}
	queue := []*types.Package{pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if pathHasSuffix(p, suffix) {
			return p
		}
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	return nil
}
