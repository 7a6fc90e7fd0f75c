package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder flags plan execution attempted while holding one of the
// serve-path bookkeeping locks: the plan cache's mutex (internal/mal,
// PlanCache.mu) and the server's flight-map mutex (internal/serve,
// Server.fmu). Plan execution acquires engine locks and can block on device
// work; taking it under a bookkeeping lock inverts the documented order
// (engine locks are innermost) and stalls every concurrent client on a map
// lookup. The analyzer is textual: the critical section runs from a Lock
// call to the first following Unlock on the same mutex expression, or to the
// end of the function when the Unlock is deferred. Function literals are
// separate scopes: a lock taken (or deferred-unlocked) inside a closure
// never spans the enclosing body.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag plan execution (Template.Run, Session and Execution methods, Server.Execute, engine calls) under the plan-cache or flight-map locks",
	Run:  runLockOrder,
}

// execMethods are the internal/mal methods that execute or flush plan
// fragments, keyed by the type that declares them: a Session builds and
// flushes, an Execution interprets and releases. A method is matched by its
// declaring type, so an Execution method reached through the Session that
// embeds it (s.Close()) is still flagged.
var execMethods = map[string]map[string]bool{
	"Session":   {"Result": true, "ScalarF": true, "ScalarI": true, "Sync": true, "flush": true, "drain": true},
	"Execution": {"execute": true, "step": true, "run": true, "finish": true, "Close": true},
}

func runLockOrder(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg, "internal/mal", "internal/serve") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockOrder(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockOrder(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

type lockEvent struct {
	pos      token.Pos
	key      string // mutex identity: rendered owner expression + field
	unlock   bool
	deferred bool
}

// inspectShallow walks body without descending into nested function
// literals — those are separate lock scopes, analyzed on their own.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

func checkLockOrder(pass *Pass, body *ast.BlockStmt) {
	var events []lockEvent
	deferredCalls := map[token.Pos]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		deferred := false
		switch st := n.(type) {
		case *ast.DeferStmt:
			call, deferred = st.Call, true
			deferredCalls[st.Call.Pos()] = true
		case *ast.CallExpr:
			// Already recorded via its DeferStmt parent (Inspect is
			// pre-order, so the parent ran first).
			if deferredCalls[st.Pos()] {
				return true
			}
			call = st
		default:
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock") {
			return true
		}
		key, guarded := guardedMutex(pass, sel.X)
		if !guarded {
			return true
		}
		events = append(events, lockEvent{pos: call.Pos(), key: key, unlock: sel.Sel.Name == "Unlock", deferred: deferred})
		return true
	})
	if len(events) == 0 {
		return
	}

	for i, ev := range events {
		if ev.unlock {
			continue
		}
		// Critical section: Lock → first textual Unlock of the same mutex,
		// or scope end when that Unlock is deferred (or absent).
		end := body.End()
		for _, u := range events[i+1:] {
			if u.unlock && u.key == ev.key && !u.deferred {
				end = u.pos
				break
			}
		}
		inspectShallow(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() <= ev.pos || call.Pos() >= end {
				return true
			}
			if why := execCall(pass, call); why != "" {
				pass.Reportf(call.Pos(),
					"%s while holding %s; plan execution takes engine locks and must not run under a bookkeeping lock",
					why, ev.key)
			}
			return true
		})
	}
}

// guardedMutex reports whether expr names one of the two guarded
// bookkeeping mutexes and returns a stable identity string for it.
func guardedMutex(pass *Pass, expr ast.Expr) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// The field must be a sync.Mutex/RWMutex …
	if !isNamed(pass.Info.TypeOf(sel), "sync", "Mutex") && !isNamed(pass.Info.TypeOf(sel), "sync", "RWMutex") {
		return "", false
	}
	// … named mu on a PlanCache or fmu on a Server.
	owner := pass.Info.TypeOf(sel.X)
	switch {
	case sel.Sel.Name == "mu" && isNamed(owner, "internal/mal", "PlanCache"):
		return types.ExprString(sel.X) + ".mu (plan cache)", true
	case sel.Sel.Name == "fmu" && isNamed(owner, "internal/serve", "Server"):
		return types.ExprString(sel.X) + ".fmu (flight map)", true
	}
	return "", false
}

// execCall classifies call as plan execution, returning a description or
// "".
func execCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	fn, _ := pass.Info.ObjectOf(sel.Sel).(*types.Func)
	// Package-level mal.RunQuery.
	if fn != nil && fn.Name() == "RunQuery" && pathHasSuffix(fn.Pkg(), "internal/mal") {
		return "RunQuery"
	}
	recv := pass.Info.TypeOf(sel.X)
	switch {
	case isNamed(recv, "internal/hybrid", "Engine"), isNamed(recv, "internal/core", "Engine"):
		return "engine call " + name
	case isNamed(recv, "internal/mal", "Template") && (name == "Run" || name == "RunOn"):
		return "Template." + name
	case isNamed(recv, "internal/mal", "PlanCache") && name == "Run":
		return "PlanCache.Run"
	case isNamed(recv, "internal/serve", "Server") && (name == "Execute" || name == "ExecuteCtx"):
		return "Server." + name
	}
	if fn == nil {
		return ""
	}
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		for typ, methods := range execMethods {
			if methods[name] && isNamed(r.Type(), "internal/mal", typ) {
				return typ + "." + name
			}
		}
	}
	return ""
}
