package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerMapOrder flags `range` over a map whose body feeds
// order-sensitive output — fmt.Fprint*/Sprint* calls, strings.Builder /
// bytes.Buffer writes, io.WriteString, or appends into a struct field
// (the shape of every experiments Result) — without going through a
// sorted key slice first. Go randomizes map iteration order, so any
// such loop produces nondeterministic bytes: the exact class of the
// PR 3 Figure 2 bug, where multi-name AS labels flipped between runs
// because a map of scenario names was rendered in iteration order.
//
// The sanctioned idiom — collect keys into a local slice, sort, then
// range over the slice — is not flagged: appending to a *local*
// variable is order-insensitive once sorted, and the second loop ranges
// over a slice, not a map.
func analyzerMapOrder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Run:  runMapOrder,
	}
}

func runMapOrder(prog *Program, pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapType(pkg.Info.Types[rs.X].Type) {
				return true
			}
			if sink := findOrderSink(pkg.Info, rs.Body); sink != "" {
				out = append(out, Finding{
					Pos:  prog.Fset.Position(rs.Pos()),
					Rule: "maporder",
					Message: "range over map " + exprString(rs.X) + " feeds order-sensitive output (" + sink +
						"); iterate a sorted key slice instead",
				})
			}
			return true
		})
	}
	return out
}

// findOrderSink scans a map-range body for the first construct whose
// output depends on iteration order, returning a short description or
// "".
func findOrderSink(info *types.Info, body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if s := callSink(info, n); s != "" {
				sink = s
				return false
			}
		case *ast.AssignStmt:
			// x.Field = append(x.Field, ...): accumulating into a struct
			// field (a Result row slice) in iteration order. Appends to
			// local variables are the sorted-keys idiom's collect phase
			// and stay legal.
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
					continue
				}
				if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && isAppendCall(info, call) {
					sink = "append to field " + exprString(lhs)
					return false
				}
			}
		}
		return true
	})
	return sink
}

// callSink classifies a call as an order-sensitive output sink.
func callSink(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	name := f.Name()
	switch funcPkgPath(f) {
	case "fmt":
		for _, prefix := range []string{"Fprint", "Print", "Sprint", "Append"} {
			if strings.HasPrefix(name, prefix) {
				return "fmt." + name
			}
		}
	case "io":
		if name == "WriteString" {
			return "io.WriteString"
		}
	case "strings", "bytes":
		// Methods on strings.Builder / bytes.Buffer that emit bytes.
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && strings.HasPrefix(name, "Write") {
			if isNamedType(recv.Type(), "strings", "Builder") {
				return "strings.Builder." + name
			}
			if isNamedType(recv.Type(), "bytes", "Buffer") {
				return "bytes.Buffer." + name
			}
		}
	}
	return ""
}

func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// exprString renders a short source-like form of simple expressions for
// messages (identifiers and selector chains; anything else is "<expr>").
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "<expr>"
	}
}
