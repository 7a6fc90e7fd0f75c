package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ConsumerNote flags buffer reads in internal/core the Memory Manager cannot
// see. An intermediate's bytes go back to the allocator's free-list once its
// producer and every *recorded* consumer event are done, so a kernel that
// reads a BAT's device buffer without being recorded can find the bytes
// handed to a new owner under it. A function that obtains a BAT's buffer for
// reading — through ValuesForRead, BitmapForRead or one of the engine's
// wrappers around them — must therefore report the reading kernel's event
// with NoteConsumer on that same BAT (matched by expression text, anywhere
// in the function), unless it is itself such an accessor (the obligation
// passes to its caller with the buffer) or the acquisition carries a
// `//lint:transfer` marker on or immediately above it — for reads the
// function waits out before returning, and for buffers it hands to a helper
// that does the noting.
//
// Like releasepair the check is flow-insensitive: it proves that the
// registration exists, not that it names the last reader.
var ConsumerNote = &Analyzer{
	Name: "consumernote",
	Doc:  "flag reads of a BAT's device buffer in internal/core that never note a consumer event on that BAT",
	Run:  runConsumerNote,
}

// readAccessors names the callees that hand out a BAT's device buffer for
// reading; the BAT is their first argument.
var readAccessors = map[string]bool{
	"ValuesForRead": true, "BitmapForRead": true, "forRead": true,
	"valuesOf": true, "materializedOIDs": true, "resolveCand": true, "selectionCandidate": true,
}

func runConsumerNote(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg, "internal/core") {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue // tests poke at buffers directly and wait on what they enqueue
		}
		markers := transferMarkers(pass.Fset, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || readAccessors[fn.Name.Name] {
				continue
			}
			noted := map[string]bool{}
			var reads []*ast.CallExpr
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				switch name := calleeName(call); {
				case name == "NoteConsumer":
					noted[types.ExprString(call.Args[0])] = true
				case readAccessors[name]:
					reads = append(reads, call)
				}
				return true
			})
			for _, call := range reads {
				arg := types.ExprString(call.Args[0])
				line := pass.Fset.Position(call.Pos()).Line
				if arg == "nil" || noted[arg] || markers[line] || markers[line-1] {
					continue
				}
				pass.Reportf(call.Pos(),
					"%s obtains the device buffer of %s but never notes a consumer on it; call NoteConsumer(%s, ev) with the reading kernel's event or mark the acquisition //lint:transfer",
					fn.Name.Name, arg, arg)
			}
		}
	}
	return nil
}
