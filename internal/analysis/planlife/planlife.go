// Package planlife implements the plan-lifecycle analyzer for the
// compiled-plan contract (internal/collective plan.go): a Plan is
// immutable after compilation — it may be shared by a PlanCache across
// goroutines and repeated executions — and belongs to the engine it was
// compiled for. The analyzer enforces three rules:
//
//   - mutation after compile: an assignment to a Plan field outside the
//     compile pipeline (Compile*/compile*/finish* functions), outside
//     the buffer-binding methods (Bind/BindV, which attach buffers by
//     design), and not on a plan constructed locally in the same
//     function;
//
//   - engine mismatch: a plan compiled against one engine variable and
//     passed to ExecutePlans with a different engine variable in the
//     same function. (The runtime rejects this too; the analyzer moves
//     the error to compile time where the function makes it obvious.)
//
//   - cache-key completeness: the function that builds a planKey takes
//     the Spec it identifies and must read every Spec field, options
//     structs field by field — a field that never flows into the key
//     makes two distinct specs collide in the cache. The finding lands
//     on the field's declaration, where an intentional omission carries
//     //lint:allow planlife with the reason.
//
// It also enforces the async Handle ownership contract of the Machine
// front door (IndexAsync/ConcatAsync/AllReduceAsync in the root bruck
// package): the returned Handle is the only way to observe completion,
// the Report and execution errors, and exactly one operation may be in
// flight per Machine. Two rules:
//
//   - discarded handle: an Async submission whose Handle lands in the
//     blank identifier can never be Waited — errors vanish and the
//     point where the buffers return to the caller is unknowable;
//
//   - resubmission before Wait: a second Async call on the same Machine
//     variable, in the same block, with no intervening Wait/Test/Report
//     on any Handle, is the "already in flight" runtime rejection moved
//     to compile time. Tracking is per-block in statement order and
//     does not descend into nested blocks, so exclusive branches never
//     interfere.
package planlife

import (
	"go/ast"
	"go/types"
	"strings"

	"bruck/internal/analysis"
)

// Analyzer is the planlife analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "planlife",
	Doc:  "flags plan mutation after compile, engine mismatch at ExecutePlans, incomplete plan cache keys, and async Handle misuse",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	analysis.FuncDecls(pass.Files, func(decl *ast.FuncDecl) {
		if !exemptFunc(decl.Name.Name) {
			checkMutations(pass, decl)
		}
		checkEngines(pass, decl)
		checkCacheKey(pass, decl)
		checkHandles(pass, decl)
	})
	return nil
}

// exemptFunc reports whether a function is part of the compile
// pipeline, where plan fields are legitimately written.
func exemptFunc(name string) bool {
	for _, prefix := range []string{"Compile", "compile", "finish"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return name == "Bind" || name == "BindV"
}

func isPlan(t types.Type) bool {
	return analysis.IsNamedType(t, "collective", "Plan")
}

func isEngine(t types.Type) bool {
	return analysis.IsNamedType(t, "mpsim", "Engine")
}

// checkMutations flags assignments to Plan fields on plans that were
// not constructed in this function.
func checkMutations(pass *analysis.Pass, decl *ast.FuncDecl) {
	local := locallyConstructed(pass, decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			tv, ok := pass.Info.Types[sel.X]
			if !ok || !isPlan(tv.Type) {
				continue
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && local[pass.Info.ObjectOf(id)] {
				continue
			}
			pass.Reportf(lhs.Pos(), "assignment to plan field %s outside the compile pipeline; compiled plans are immutable and may be shared by the cache", sel.Sel.Name)
		}
		return true
	})
}

// locallyConstructed returns the set of variables bound to a Plan
// constructed in this function (&Plan{...}, Plan{...}, new(Plan)):
// a plan under construction is not yet shared and may be written.
func locallyConstructed(pass *analysis.Pass, decl *ast.FuncDecl) map[types.Object]bool {
	local := map[types.Object]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) || !freshPlan(pass.Info, rhs) {
				continue
			}
			if id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					local[obj] = true
				}
			}
		}
		return true
	})
	return local
}

// freshPlan reports whether e constructs a new Plan value.
func freshPlan(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return freshPlan(info, x.X)
	case *ast.CompositeLit:
		tv, ok := info.Types[ast.Expr(x)]
		return ok && isPlan(tv.Type)
	case *ast.CallExpr:
		if !analysis.IsBuiltin(info, x, "new") || len(x.Args) != 1 {
			return false
		}
		tv, ok := info.Types[x.Args[0]]
		return ok && isPlan(tv.Type)
	}
	return false
}

// checkEngines flags plans compiled against one engine variable and
// executed via ExecutePlans with another.
func checkEngines(pass *analysis.Pass, decl *ast.FuncDecl) {
	// planEngine maps each plan variable to the engine variable its
	// compile call received.
	planEngine := map[types.Object]types.Object{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		eng := engineArg(pass, call)
		if eng == nil {
			return true
		}
		for _, lhs := range assign.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.ObjectOf(id)
			if obj != nil && isPlan(obj.Type()) {
				planEngine[obj] = eng
			}
		}
		return true
	})
	if len(planEngine) == 0 {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.Info, call)
		if fn == nil || fn.Name() != "ExecutePlans" || !analysis.PkgSuffix(fn.Pkg(), "collective") || len(call.Args) < 2 {
			return true
		}
		execEng := identObj(pass.Info, call.Args[0])
		if execEng == nil || !isEngine(execEng.Type()) {
			return true
		}
		for _, arg := range call.Args[1:] {
			ast.Inspect(arg, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Info.ObjectOf(id)
				if eng, tracked := planEngine[obj]; tracked && eng != execEng {
					pass.Reportf(id.Pos(), "plan %s was compiled for engine %s but is executed on %s; a plan belongs to the engine it was compiled for", obj.Name(), eng.Name(), execEng.Name())
				}
				return true
			})
		}
		return true
	})
}

// engineArg returns the engine variable a compile-like call receives:
// the call must return a plan (first result *Plan) and take exactly one
// engine-typed ident argument.
func engineArg(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 || !isPlan(sig.Results().At(0).Type()) {
		return nil
	}
	var eng types.Object
	for _, arg := range call.Args {
		obj := identObj(pass.Info, arg)
		if obj == nil || !isEngine(obj.Type()) {
			continue
		}
		if eng != nil {
			return nil // ambiguous
		}
		eng = obj
	}
	return eng
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// asyncMethods are the Machine submissions returning a completion
// Handle.
var asyncMethods = map[string]bool{
	"IndexAsync":     true,
	"ConcatAsync":    true,
	"AllReduceAsync": true,
}

func isMachine(t types.Type) bool {
	return analysis.IsNamedType(t, "bruck", "Machine")
}

func isHandle(t types.Type) bool {
	return analysis.IsNamedType(t, "bruck", "Handle")
}

// asyncMachine returns the Machine variable an async submission call
// runs on, or nil when the call is not an Async method on an
// identifiable Machine variable.
func asyncMachine(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !asyncMethods[sel.Sel.Name] {
		return nil
	}
	obj := identObj(pass.Info, sel.X)
	if obj == nil || !isMachine(obj.Type()) {
		return nil
	}
	return obj
}

// consumesHandle reports whether the statement calls Wait, Test or
// Report on some Handle, anywhere inside it (including nested blocks
// and function literals — clearing the in-flight state is the
// conservative direction).
func consumesHandle(pass *analysis.Pass, stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Wait", "Test", "Report":
		default:
			return true
		}
		if tv, ok := pass.Info.Types[sel.X]; ok && isHandle(tv.Type) {
			found = true
		}
		return !found
	})
	return found
}

// topLevelAsyncCalls collects the async submission calls of one
// statement without descending into nested blocks or function literals
// (those have their own per-block tracking and their own execution
// order).
func topLevelAsyncCalls(pass *analysis.Pass, stmt ast.Stmt, f func(call *ast.CallExpr, mach types.Object)) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if mach := asyncMachine(pass, call); mach != nil {
				f(call, mach)
			}
		}
		return true
	})
}

// checkHandles enforces the async Handle ownership contract: no
// blank-discarded handles, and no second submission on a machine whose
// previous handle has not been consumed.
func checkHandles(pass *analysis.Pass, decl *ast.FuncDecl) {
	// Discarded handles, anywhere in the function: the submission's
	// first result assigned to the blank identifier.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || asyncMachine(pass, call) == nil {
			return true
		}
		if id, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident); ok && id.Name == "_" {
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			pass.Reportf(assign.Lhs[0].Pos(), "the %s Handle is discarded; completion, the Report and execution errors are unobservable and the buffers' release point is unknowable — Wait on it", sel.Sel.Name)
		}
		return true
	})
	// Resubmission before Wait: per-block, in statement order.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		pending := map[types.Object]bool{}
		for _, stmt := range block.List {
			if consumesHandle(pass, stmt) {
				pending = map[types.Object]bool{}
			}
			topLevelAsyncCalls(pass, stmt, func(call *ast.CallExpr, mach types.Object) {
				if pending[mach] {
					pass.Reportf(call.Pos(), "second asynchronous operation on %s before the previous Handle's Wait/Test; one operation may be in flight per Machine and the runtime rejects this submission", mach.Name())
				}
				pending[mach] = true
			})
		}
		return true
	})
}

// checkCacheKey holds the one function that builds a planKey to the
// whole Spec: it must take the Spec as a parameter and read every
// field of it — of a field that is itself a struct of the package, a
// whole-value read or a read of every field of that. A field that
// never flows in is reported where it is declared.
func checkCacheKey(pass *analysis.Pass, decl *ast.FuncDecl) {
	var keyLit *ast.CompositeLit
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && keyLit == nil {
			if tv, ok := pass.Info.Types[ast.Expr(lit)]; ok && analysis.IsNamedType(tv.Type, "collective", "planKey") {
				keyLit = lit
			}
		}
		return keyLit == nil
	})
	if keyLit == nil {
		return
	}
	var spec types.Object
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.ObjectOf(name); obj != nil && analysis.IsNamedType(obj.Type(), "collective", "Spec") {
					spec = obj
				}
			}
		}
	}
	if spec == nil {
		pass.Reportf(keyLit.Pos(), "plan cache key built without the Spec it identifies; a planKey is derived from a canonical Spec in one function")
		return
	}
	// used holds the selector paths read off the parameter: "Index",
	// "Reduce.Kernel". A longer path does not count as a read of its
	// prefix, so the walk stops at the outermost selector.
	used := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path := sel.Sel.Name
		x := ast.Unparen(sel.X)
		if inner, ok := x.(*ast.SelectorExpr); ok {
			path, x = inner.Sel.Name+"."+path, ast.Unparen(inner.X)
		}
		if id, ok := x.(*ast.Ident); ok && pass.Info.ObjectOf(id) == spec {
			used[path] = true
			return false
		}
		return true
	})
	fields := analysis.NamedOf(spec.Type()).Underlying().(*types.Struct)
	for i := 0; i < fields.NumFields(); i++ {
		f := fields.Field(i)
		if used[f.Name()] {
			continue
		}
		sub, nested := f.Type().Underlying().(*types.Struct)
		if named := analysis.NamedOf(f.Type()); !nested || named == nil || named.Obj().Pkg() != f.Pkg() {
			pass.Reportf(f.Pos(), "Spec field %s never flows into the plan cache key; specs differing only there would collide in the plan cache", f.Name())
			continue
		}
		for j := 0; j < sub.NumFields(); j++ {
			if g := sub.Field(j); !used[f.Name()+"."+g.Name()] {
				pass.Reportf(g.Pos(), "Spec field %s.%s never flows into the plan cache key; specs differing only there would collide in the plan cache", f.Name(), g.Name())
			}
		}
	}
}
