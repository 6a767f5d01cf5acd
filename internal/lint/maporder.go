package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags range-over-map loops whose iteration order leaks into
// ordered output: appending map keys or values to a slice that is never
// sorted afterwards, or writing to an encoder/writer/recorder from inside
// the loop. Go randomizes map iteration per run, so any such leak makes
// the Prometheus exposition, the exported trace documents, and any
// computation built on the leaked order differ between identical runs —
// exactly what the tier-1 cost pins (victim queries, device cycles, solution
// counts asserted in internal/huffduff's tests) and the paper's
// reproducibility claims cannot tolerate.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "range over a map must not feed ordered output (slices without a " +
		"subsequent sort, writers, encoders, metric recorders)",
	Run: runMapOrder,
}

// writeMethodNames are method names that emit ordered output; calling one
// inside a map-range body serializes the randomized iteration order.
var writeMethodNames = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// obsMethodNames are the internal/obs Recorder entry points; emitting
// metrics while ranging a map randomizes event-stream order.
var obsMethodNames = map[string]bool{
	"Count":   true,
	"Gauge":   true,
	"Observe": true,
}

// convergeMethodNames are the internal/converge Ledger entry points that
// feed the ordered snapshot stream (JSONL artifacts and the progress
// endpoints); appending from inside a map-range loop randomizes the stream
// between identical runs.
var convergeMethodNames = map[string]bool{
	"Append": true,
}

// writePkgFuncs are package-level functions that emit ordered output.
var writePkgFuncs = map[string]bool{
	"fmt.Fprint":     true,
	"fmt.Fprintf":    true,
	"fmt.Fprintln":   true,
	"fmt.Print":      true,
	"fmt.Printf":     true,
	"fmt.Println":    true,
	"io.WriteString": true,
}

func runMapOrder(pass *Pass) {
	eachFuncBody(pass.Pkg.Files, func(body *ast.BlockStmt) {
		mapOrderBody(pass, body)
	})
}

// mapOrderBody checks every map-range loop of one function body.
func mapOrderBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	var loops []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			return lit.Body == body
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			if _, isMap := typeUnder(info, rs.X).(*types.Map); isMap {
				loops = append(loops, rs)
			}
		}
		return true
	})
	for _, rs := range loops {
		checkMapRange(pass, body, rs)
	}
}

// checkMapRange applies the two leak rules to one map-range loop.
func checkMapRange(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// keys = append(keys, k) onto a slice declared outside the loop.
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || i >= len(n.Lhs) {
					continue
				}
				target, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[target]
				if obj == nil {
					obj = info.Defs[target]
				}
				if obj == nil || obj.Pos() > rs.Pos() {
					continue // loop-local accumulation; scope too small to leak
				}
				if sortedAfter(info, body, rs, obj) {
					continue
				}
				pass.Reportf(call.Pos(),
					"map iteration order escapes into %q, which is never sorted afterwards; sort it before use", target.Name)
			}
		case *ast.CallExpr:
			if name, ok := orderedWriteCall(info, n); ok {
				pass.Reportf(n.Pos(),
					"%s emits ordered output while ranging over a map; iterate sorted keys instead", name)
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// orderedWriteCall reports whether the call emits ordered output, returning
// a printable callee name.
func orderedWriteCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if pkg, fn, ok := pkgCall(info, call); ok {
		short := pkg[strings.LastIndex(pkg, "/")+1:] + "." + fn
		return short, writePkgFuncs[short]
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	name := obj.Name()
	if writeMethodNames[name] {
		return name, true
	}
	if obsMethodNames[name] && strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
		return "obs." + name, true
	}
	if convergeMethodNames[name] && strings.HasSuffix(obj.Pkg().Path(), "internal/converge") {
		return "converge." + name, true
	}
	return "", false
}

// sortedAfter reports whether, later in the same function body, a sorting
// call (package sort or slices, or any callee whose name mentions sort)
// takes the accumulated slice as an argument.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, target types.Object) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == target {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// isSortCall recognizes sorting callees: anything in package sort or
// slices, or any function whose name contains "sort".
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if pkg, _, ok := pkgCall(info, call); ok && (pkg == "sort" || pkg == "slices") {
		return true
	}
	if obj := calleeObject(info, call); obj != nil {
		return strings.Contains(strings.ToLower(obj.Name()), "sort")
	}
	return false
}

// typeUnder returns the underlying type of an expression, nil-safe.
func typeUnder(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}
