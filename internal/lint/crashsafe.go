package lint

// crashsafe enforces the durability discipline of the persistence layers
// (internal/store, internal/telemetry): data reaches disk before the
// operations that publish it, and failed writes never leave a handle whose
// in-memory bookkeeping has drifted from the bytes on disk.
//
// Two rules, both syntax-directed walks of each function body:
//
// Rule A — unsynced rename. A may-dirty walk tracks, per *os.File
// expression, whether it may carry written-but-unsynced data. Write-family
// calls mark the handle dirty, Sync clears it; Close does NOT clear it
// (close flushes to the page cache, not to the platter — the exact torn-
// sidecar shape PR 9's review caught). os.WriteFile never syncs, so its
// target path stays permanently dirty. Reaching an os.Rename while any
// handle is dirty on a feasible path is reported: rename is the publish
// point, and publishing unsynced bytes means a crash can expose a torn
// file under the final name. Branches on a cfg `NoSync` flag are pruned to
// the production value (false), so the test-only fsync bypass does not
// poison every path.
//
// The walk follows Go's structured control flow: `if` joins both arms;
// switch, type switch and select walk every clause from the head's facts,
// and a switch without default also joins the head's facts; break,
// continue and fallthrough carry their facts to the statement they name;
// return, panic, os.Exit and log.Fatal* end the path. A loop body is walked
// silently until the facts at its head stop growing, then once more with
// reporting on. goto is not followed, so code that only a goto reaches is
// never checked; no function in the analyzer's scope uses goto.
//
// Rule B — failed write/fsync falling through. When `err != nil` guards
// the result of a Write/Sync on a durable (non-scratch) *os.File, the
// error path must do something that re-establishes a known state: close,
// truncate, stat-reconcile, reopen, remove, or crash — directly or through
// a function of this package within two calls. An error path that just returns
// leaves the handle appendable with torn bytes and stale cached offsets;
// the next append concatenates onto garbage (the PR 9 failed-fsync bug,
// encoded). Scratch files (opened under a *.tmp path and abandoned on
// error) are exempt: their torn bytes are never renamed into place. Callees
// are looked up only in the package under analysis: the persistence layers
// keep their recovery helpers next to their write paths, and a helper
// elsewhere is missed, so the rule errs toward reporting.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CrashSafe is the durability-discipline analyzer.
var CrashSafe = &Analyzer{
	Name: "crashsafe",
	Doc: "Durability files must be fsynced before rename, and write/fsync " +
		"error paths must seal or reopen the handle instead of falling " +
		"through with stale in-memory state.",
	Paths: []string{"internal/store", "internal/telemetry"},
	Run:   runCrashSafe,
}

func runCrashSafe(pass *Pass) {
	eachFuncBody(pass.Pkg.Files, func(body *ast.BlockStmt) {
		w := &dirtyWalk{pass: pass, report: true}
		w.stmts(dirtyFacts{}, body.List)
		crashSafeRuleB(pass, body)
	})
}

// dirtyFacts is Rule A's fact: the set of handle expressions (by source
// text) that carry written-but-unsynced data on some path. Nil means no path
// reaches the statement. Facts are shared between paths, so a change makes
// a new set; none is mutated in place.
type dirtyFacts map[string]bool

// transfer applies one simple statement or expression to a fact.
func transfer(info *types.Info, f dirtyFacts, n ast.Node) dirtyFacts {
	var dirty, clean []string
	inspectCalls(n, func(call *ast.CallExpr) {
		if recv, name, ok := osFileMethod(info, call); ok {
			key := types.ExprString(recv)
			switch name {
			case "Write", "WriteString", "WriteAt", "ReadFrom":
				dirty = append(dirty, key)
			case "Sync":
				clean = append(clean, key)
			}
			return
		}
		if path, fn, ok := pkgCall(info, call); ok && path == "os" &&
			fn == "WriteFile" && len(call.Args) > 0 {
			// os.WriteFile closes without syncing: the written path can
			// stay dirty in the page cache indefinitely.
			dirty = append(dirty, "os.WriteFile("+types.ExprString(call.Args[0])+")")
		}
	})
	if len(dirty) == 0 && len(clean) == 0 {
		return f
	}
	out := make(dirtyFacts, len(f)+len(dirty))
	for k := range f {
		out[k] = true
	}
	for _, k := range clean {
		delete(out, k)
	}
	for _, k := range dirty {
		out[k] = true
	}
	return out
}

// join merges the facts of two paths that meet.
func join(a, b dirtyFacts) dirtyFacts {
	switch {
	case a == nil:
		return b
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	out := make(dirtyFacts, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// branches splits f over the true and false edges of a condition. A NoSync
// condition prunes the edge production never takes (NoSync is false there):
// the fsync-bypass paths exist for tests only.
func branches(cond ast.Expr, f dirtyFacts) (onTrue, onFalse dirtyFacts) {
	match, negated := noSyncCond(cond)
	switch {
	case !match:
		return f, f
	case negated:
		return f, nil
	default:
		return nil, f
	}
}

// noSyncCond matches the conditions `x.NoSync` and `!x.NoSync`.
func noSyncCond(cond ast.Expr) (match, negated bool) {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		m, _ := noSyncCond(u.X)
		return m, true
	}
	if sel, ok := cond.(*ast.SelectorExpr); ok && sel.Sel.Name == "NoSync" {
		return true, false
	}
	return false, false
}

// dirtyWalk is Rule A's walk over one function body.
type dirtyWalk struct {
	pass   *Pass
	report bool // off while a loop body is walked to its fixpoint
	frames []*jumpFrame
}

// jumpFrame is an enclosing loop (token.FOR), switch (token.SWITCH) or
// select (token.SELECT), collecting the facts that break, continue or
// fallthrough send to it.
type jumpFrame struct {
	label           string
	kind            token.Token
	brk, cont, fall dirtyFacts
}

func (w *dirtyWalk) push(label string, kind token.Token) *jumpFrame {
	fr := &jumpFrame{label: label, kind: kind}
	w.frames = append(w.frames, fr)
	return fr
}

func (w *dirtyWalk) pop() { w.frames = w.frames[:len(w.frames)-1] }

func (w *dirtyWalk) stmts(f dirtyFacts, list []ast.Stmt) dirtyFacts {
	for _, s := range list {
		f = w.stmt(f, s, "")
	}
	return f
}

// stmt walks one statement from f and returns the facts after it; label
// names the statement when it is labeled. Code that only a goto reaches
// stays unreachable.
func (w *dirtyWalk) stmt(f dirtyFacts, s ast.Stmt, label string) dirtyFacts {
	if f == nil {
		return nil
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(f, st.List)
	case *ast.LabeledStmt:
		return w.stmt(f, st.Stmt, st.Label.Name)
	case *ast.IfStmt:
		then, els := branches(st.Cond, w.leaf(w.leaf(f, st.Init), st.Cond))
		then = w.stmts(then, st.Body.List)
		if st.Else != nil {
			els = w.stmt(els, st.Else, "")
		}
		return join(then, els)
	case *ast.ForStmt:
		return w.loop(w.leaf(f, st.Init), label, st.Cond, st.Post, st.Body, st.Cond != nil)
	case *ast.RangeStmt:
		// X is evaluated once, and the body may run zero times.
		return w.loop(w.leaf(f, st.X), label, nil, nil, st.Body, true)
	case *ast.SwitchStmt:
		return w.clauses(w.leaf(w.leaf(f, st.Init), st.Tag), label, st.Body)
	case *ast.TypeSwitchStmt:
		return w.clauses(w.leaf(w.leaf(f, st.Init), st.Assign), label, st.Body)
	case *ast.SelectStmt:
		fr := w.push(label, token.SELECT)
		var out dirtyFacts
		for _, s := range st.Body.List {
			cc := s.(*ast.CommClause)
			out = join(out, w.stmts(w.leaf(f, cc.Comm), cc.Body))
		}
		w.pop()
		return join(out, fr.brk)
	case *ast.BranchStmt:
		w.jump(f, st)
		return nil
	case *ast.ReturnStmt:
		w.leaf(f, st)
		return nil
	case *ast.ExprStmt:
		f = w.leaf(f, st)
		if call, ok := st.X.(*ast.CallExpr); ok && neverReturns(w.pass.Pkg.Info, call) {
			return nil
		}
		return f
	default:
		return w.leaf(f, st)
	}
}

// loop walks a for or range loop entered with facts in. The head evaluates
// cond (nil for range and for {}); exits says whether the head can leave
// the loop, which only a break can do in for {}. The body is walked
// silently until the facts at the head stop growing, then once more with
// reporting on, so each rename in it is reported once, against the facts
// of every path that reaches it.
func (w *dirtyWalk) loop(in dirtyFacts, label string, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt, exits bool) dirtyFacts {
	// pass walks the loop once from the facts at its head, returning the
	// facts that leave the loop and those that take the back edge.
	pass := func(head dirtyFacts) (out, back dirtyFacts) {
		in := w.leaf(head, cond)
		var exit dirtyFacts
		if cond != nil {
			in, exit = branches(cond, in)
		} else if exits {
			exit = in
		}
		fr := w.push(label, token.FOR)
		end := w.stmts(in, body.List)
		w.pop()
		return join(exit, fr.brk), w.leaf(join(end, fr.cont), post)
	}
	report := w.report
	w.report = false
	head := in
	for {
		_, back := pass(head)
		next := join(in, back)
		if len(next) == len(head) { // facts only grow: same size, same set
			break
		}
		head = next
	}
	w.report = report
	out, _ := pass(head)
	return out
}

// clauses walks the body of a switch or type switch. Each clause starts
// from the head's facts, joined with those falling through from the clause
// before it; without a default, the head's facts also skip every clause.
func (w *dirtyWalk) clauses(f dirtyFacts, label string, body *ast.BlockStmt) dirtyFacts {
	fr := w.push(label, token.SWITCH)
	var out dirtyFacts
	hasDefault := false
	for _, s := range body.List {
		cc := s.(*ast.CaseClause)
		hasDefault = hasDefault || cc.List == nil
		in := join(f, fr.fall)
		fr.fall = nil
		for _, e := range cc.List {
			in = w.leaf(in, e)
		}
		out = join(out, w.stmts(in, cc.Body))
	}
	w.pop()
	if !hasDefault {
		out = join(out, f)
	}
	return join(out, fr.brk)
}

// jump sends f to the frame a break, continue or fallthrough names. goto
// is not followed.
func (w *dirtyWalk) jump(f dirtyFacts, st *ast.BranchStmt) {
	for i := len(w.frames) - 1; i >= 0; i-- {
		fr := w.frames[i]
		named := st.Label == nil || st.Label.Name == fr.label
		switch {
		case st.Tok == token.BREAK && named:
			fr.brk = join(fr.brk, f)
		case st.Tok == token.CONTINUE && named && fr.kind == token.FOR:
			fr.cont = join(fr.cont, f)
		case st.Tok == token.FALLTHROUGH && fr.kind == token.SWITCH:
			fr.fall = join(fr.fall, f)
		default:
			continue
		}
		return
	}
}

// leaf applies one simple statement or expression (nil is a no-op): it
// reports each os.Rename under n while any handle is dirty, then transfers
// f across n.
func (w *dirtyWalk) leaf(f dirtyFacts, n ast.Node) dirtyFacts {
	if f == nil || n == nil {
		return f
	}
	info := w.pass.Pkg.Info
	if w.report && len(f) > 0 {
		inspectCalls(n, func(call *ast.CallExpr) {
			if path, fn, ok := pkgCall(info, call); !ok || path != "os" || fn != "Rename" {
				return
			}
			keys := make([]string, 0, len(f))
			for k := range f {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			w.pass.Reportf(call.Pos(), "os.Rename while %s is written but not fsynced; "+
				"a crash after the rename can publish a torn file under the final name",
				strings.Join(keys, ", "))
		})
	}
	return transfer(info, f, n)
}

// neverReturns reports whether a call ends the path: panic, os.Exit or
// log.Fatal*.
func neverReturns(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name == "panic"
	}
	path, fn, ok := pkgCall(info, call)
	return ok && (path == "os" && fn == "Exit" || path == "log" && strings.HasPrefix(fn, "Fatal"))
}

// crashSafeRuleB walks every `if err != nil` guarding a Write/Sync on a
// durable handle and demands a recovery action on the error path.
func crashSafeRuleB(pass *Pass, body *ast.BlockStmt) {
	scratch := scratchLocals(pass.Pkg.Info, body)
	eachStmtList(body, func(list []ast.Stmt) {
		for i, st := range list {
			ifSt, ok := st.(*ast.IfStmt)
			if !ok {
				continue
			}
			var prev ast.Stmt
			if i > 0 {
				prev = list[i-1]
			}
			checkErrGuard(pass, ifSt, prev, scratch)
		}
	})
}

func checkErrGuard(pass *Pass, ifSt *ast.IfStmt, prev ast.Stmt, scratch map[types.Object]bool) {
	errIdent := errNilCond(pass.Pkg.Info, ifSt.Cond)
	if errIdent == nil {
		return
	}
	origin := originCall(pass.Pkg.Info, ifSt, prev, errIdent)
	if origin == nil {
		return
	}
	recv, name, ok := osFileMethod(pass.Pkg.Info, origin)
	if !ok {
		return
	}
	switch name {
	case "Write", "WriteString", "WriteAt", "ReadFrom", "Sync":
	default:
		return
	}
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if obj := pass.Pkg.Info.Uses[id]; obj != nil && scratch[obj] {
			return // abandoned *.tmp scratch file: torn bytes are never published
		}
	}
	if hasRecovery(pass.Pkg, ifSt.Body, 2) {
		return
	}
	pass.Reportf(origin.Pos(), "a failed %s on %s leaves torn bytes and stale cached state behind; "+
		"the error path must seal, truncate, or reopen the handle (or crash) before returning",
		name, types.ExprString(recv))
}

// errNilCond matches `x != nil` where x is an identifier of type error,
// returning the identifier.
func errNilCond(info *types.Info, cond ast.Expr) *ast.Ident {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return nil
	}
	id, ok := ast.Unparen(bin.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if nilID, ok := ast.Unparen(bin.Y).(*ast.Ident); !ok || nilID.Name != "nil" {
		return nil
	}
	if tv, ok := info.Types[bin.X]; !ok || !isErrorType(tv.Type) {
		return nil
	}
	return id
}

// originCall finds the call whose error the if statement guards: the init
// clause (`if _, err := f.Write(b); err != nil`) or the immediately
// preceding assignment (`err := f.Sync(); if err != nil`).
func originCall(info *types.Info, ifSt *ast.IfStmt, prev ast.Stmt, errIdent *ast.Ident) *ast.CallExpr {
	if call := assignedCall(info, ifSt.Init, errIdent); call != nil {
		return call
	}
	if ifSt.Init == nil {
		return assignedCall(info, prev, errIdent)
	}
	return nil
}

// assignedCall returns the call expression st assigns to errIdent, if any.
func assignedCall(info *types.Info, st ast.Stmt, errIdent *ast.Ident) *ast.CallExpr {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	errObj := info.Uses[errIdent]
	if errObj == nil {
		errObj = info.Defs[errIdent]
	}
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil && obj == errObj {
			return call
		}
	}
	return nil
}

// hasRecovery reports whether the error path re-establishes a known handle
// state: a close/truncate/stat/seek on a file, a filesystem operation that
// replaces or removes state, a crash, or a function of this package that
// does one of those within depth calls.
func hasRecovery(pkg *Package, body ast.Node, depth int) bool {
	found := false
	inspectCalls(body, func(call *ast.CallExpr) {
		if found {
			return
		}
		if neverReturns(pkg.Info, call) {
			found = true
			return
		}
		if _, name, ok := osFileMethod(pkg.Info, call); ok {
			switch name {
			case "Close", "Truncate", "Stat", "Seek":
				found = true
			}
			return
		}
		if path, fn, ok := pkgCall(pkg.Info, call); ok {
			if path == "os" {
				switch fn {
				case "OpenFile", "Open", "Create", "Remove", "Rename", "Truncate":
					found = true
				}
			}
			return
		}
		if depth > 0 {
			if decl := funcDecl(pkg, calleeObject(pkg.Info, call)); decl != nil {
				found = hasRecovery(pkg, decl.Body, depth-1)
			}
		}
	})
	return found
}

// funcDecl returns the declaration, with a body, of a function or method
// that pkg declares, or nil.
func funcDecl(pkg *Package, fn types.Object) *ast.FuncDecl {
	if fn == nil {
		return nil
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && pkg.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// scratchLocals collects local variables opened on a *.tmp path: scratch
// files whose torn bytes are abandoned, not published.
func scratchLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		path, fn, ok := pkgCall(info, call)
		if !ok || path != "os" {
			return true
		}
		switch fn {
		case "CreateTemp":
		case "OpenFile", "Create":
			if len(call.Args) == 0 || !mentionsTmp(call.Args[0]) {
				return true
			}
		default:
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// mentionsTmp reports whether a path expression references a temporary
// name: a ".tmp" string literal or an identifier named after one.
func mentionsTmp(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BasicLit:
			if v.Kind == token.STRING && strings.Contains(v.Value, ".tmp") {
				found = true
			}
		case *ast.Ident:
			if strings.Contains(strings.ToLower(v.Name), "tmp") {
				found = true
			}
		}
		return true
	})
	return found
}

// inspectCalls visits every call expression under n, without descending
// into function literals (their bodies are separate functions).
func inspectCalls(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

// osFileMethod matches a method call on an *os.File-typed receiver,
// returning the receiver expression and the method name.
func osFileMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return nil, "", false
	}
	tv, okT := info.Types[sel.X]
	if !okT || !isOSFile(tv.Type) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// isOSFile reports whether t is *os.File.
func isOSFile(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// eachStmtList visits every statement list (block bodies, case bodies)
// under body, including body itself.
func eachStmtList(body *ast.BlockStmt, fn func([]ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			fn(v.List)
		case *ast.CaseClause:
			fn(v.Body)
		case *ast.CommClause:
			fn(v.Body)
		}
		return true
	})
}
