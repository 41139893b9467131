// Package detrand implements the determinism analyzer: compiled plans,
// canonical traces and reports must be pure functions of their inputs
// (the record/verify tooling pins the traces byte-for-byte), so
// nondeterminism sources are flagged wherever they could feed one:
//
//   - time.Now calls (wall-clock nondeterminism). The sites that exist
//     to measure time — benchmark/ and the serving demo, a set CI pins —
//     carry a //lint:allow detrand directive with the reason.
//   - The global math/rand source (rand.Intn, rand.Shuffle, ...). A
//     seeded local generator (rand.New(rand.NewSource(seed))) — or the
//     repo's splitmix64 convention — is always available instead.
//   - Iteration over a map that feeds ordered output: a loop body that
//     appends to an outer slice (unless the slice is sorted afterwards
//     in the same function), writes through a printer/encoder, or
//     accumulates into an outer string observes Go's randomized map
//     order. Order-insensitive map loops (delete, counters, min/max
//     reductions) pass.
package detrand

import (
	"go/ast"
	"go/types"

	"bruck/internal/analysis"
)

// Analyzer is the detrand analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "flags wall-clock, global-rand and map-order nondeterminism that could feed plans, traces or snapshots",
	Run:  run,
}

// globalRand lists the math/rand package-level functions that draw
// from the shared global source. Constructors (New, NewSource, NewZipf)
// build seeded local generators and are fine.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32N": true, "Int64N": true, "UintN": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(call.Pos(), "time.Now is wall-clock nondeterminism; plans, traces and snapshots must be pure functions of their inputs")
				}
			case "math/rand", "math/rand/v2":
				if globalRand[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(call.Pos(), "rand.%s draws from the global math/rand source; use a seeded local generator", fn.Name())
				}
			}
			return true
		})
	}
	analysis.FuncDecls(pass.Files, func(decl *ast.FuncDecl) {
		checkMapRanges(pass, decl)
	})
	return nil
}

// checkMapRanges flags map-range loops in decl whose bodies feed
// ordered sinks.
func checkMapRanges(pass *analysis.Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if sink := orderedSink(pass, decl, rng); sink != "" {
			pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop %s; iterate a sorted key slice instead", sink)
		}
		return true
	})
}

// orderedSink classifies a map-range body: it returns a description of
// the first order-sensitive sink the loop feeds, or "" when the loop is
// order-insensitive.
func orderedSink(pass *analysis.Pass, decl *ast.FuncDecl, rng *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if analysis.IsBuiltin(pass.Info, n, "append") {
				if obj := appendTarget(pass.Info, n); obj != nil && declaredOutside(obj, rng) && !sortedLater(pass, decl, obj) {
					sink = "appends to " + obj.Name() + " (never sorted afterwards)"
				}
				return true
			}
			if fn := analysis.CalleeFunc(pass.Info, n); fn != nil && printerLike(fn) {
				sink = "writes through " + fn.Name()
			}
		case *ast.AssignStmt:
			// String accumulation into an outer variable concatenates in
			// map order.
			for _, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || !declaredOutside(obj, rng) {
					continue
				}
				if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
					sink = "accumulates into string " + obj.Name()
				}
			}
		}
		return true
	})
	return sink
}

// appendTarget returns the object append's result is assigned to, when
// the enclosing statement has the canonical x = append(x, ...) shape.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// declaredOutside reports whether obj is declared outside the range
// statement's body.
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Body.Pos() || obj.Pos() > rng.Body.End()
}

// sortedLater reports whether the function passes obj to a sort or
// slices ordering function anywhere (the append-then-sort idiom).
func sortedLater(pass *analysis.Pass, decl *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		fn := analysis.CalleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return !found
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return !found
		}
		for _, arg := range call.Args {
			if analysis.UsesObject(pass.Info, arg, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// printerLike reports whether fn emits ordered output: the fmt print
// family and Write/Encode/Marshal-style emitters. The Sprint family is
// pure — it returns a string, and where that string lands decides
// order-sensitivity — so it is deliberately absent.
func printerLike(fn *types.Func) bool {
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "Encode", "Marshal", "MarshalIndent":
		return true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Fprintf", "Fprintln", "Fprint", "Printf", "Println", "Print", "Appendf":
			return true
		}
	}
	return false
}
