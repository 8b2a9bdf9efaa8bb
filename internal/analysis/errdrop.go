package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop enforces error handling on the repository's contract APIs —
// the calls whose errors carry correctness information an estimation
// pipeline must not lose: System.Run/RunBFCEDetail, Monitor.Run, Merge,
// the Estimate entry points (the core-level methods and
// estimators.Estimate), and the fleet entry points (Run, Map).
// Dropping one of these errors is how a saturated or infeasible round
// silently becomes a plausible-looking estimate.
//
// The check is interprocedural: a module function that merely forwards a
// contract error ("func trial() error { return sys.Run(...) }") exports
// a fact and becomes a contract API itself, so discarding ITS error two
// calls up is flagged just the same — the laundering the file-local
// analyzers could not see.
//
// Three discard shapes are reported: a bare call statement (implicit
// drop — carries a suggested fix that inserts the explicit blanks, so
// rfidlint -fix turns the invisible discard into a visible one for a
// human to justify or handle), an explicit blank assignment of the
// error position ("_ = sys.Run(...)", "res, _ := fleet.Run(...)"), and
// a call discarded wholesale by go/defer. Deliberate discards take a
// reasoned //lint:allow errdrop at the use site.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "flag contract-API errors (Run, RunBFCEDetail, Merge, Estimate, fleet.Run/Map, and their wrappers) " +
		"discarded anywhere in the call chain; a dropped error turns a failed round into a fake estimate",
	Interprocedural: true,
	Run:             runErrDrop,
}

// contractErrNames are the module functions/methods whose error result
// is load-bearing by contract. Wrappers that forward these errors are
// discovered by fact propagation, not listed.
var contractErrNames = map[string]bool{
	"Run":           true,
	"RunBFCEDetail": true,
	"Merge":         true,
	"Estimate":      true,
	"Map":           true,
}

// contractErrFact marks a module function that returns a contract
// error it received from a callee — it inherits the must-handle rule.
type contractErrFact struct{}

func (contractErrFact) String() string { return "returns a contract error" }

func runErrDrop(pass *Pass) error {
	ed := &errdrop{pass: pass, module: moduleOf(pass)}
	decls := packageFuncDecls(pass)
	for range decls {
		changed := false
		for _, d := range decls {
			if ed.analyzeFunc(d, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, d := range decls {
		ed.analyzeFunc(d, true)
	}
	return nil
}

// moduleOf recovers the module path from a pass ("rfidest" for package
// rfidest/internal/fleet at rel internal/fleet).
func moduleOf(pass *Pass) string {
	if pass.Rel == "." {
		return pass.Path
	}
	return strings.TrimSuffix(pass.Path, "/"+pass.Rel)
}

type errdrop struct {
	pass   *Pass
	module string
}

// isContractCall reports whether calling fn yields an error the caller
// must handle: a module function with an error last result that is
// either named in the contract list or fact-marked as forwarding one.
func (ed *errdrop) isContractCall(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != ed.module && !strings.HasPrefix(path, ed.module+"/") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return false
	}
	if contractErrNames[fn.Name()] {
		return true
	}
	for _, f := range ed.pass.FactsOn(fn) {
		if _, ok := f.(contractErrFact); ok {
			return true
		}
	}
	return false
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	named, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// contractCallOf returns the contract callee of e when e is a call to
// one, nil otherwise.
func (ed *errdrop) contractCallOf(e ast.Expr) *types.Func {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := CalleeFunc(ed.pass.Info, call)
	if fn != nil && ed.isContractCall(fn) {
		return fn
	}
	return nil
}

// analyzeFunc scans one function for discarded contract errors and
// exports the forwarding fact; it reports whether a new fact appeared.
func (ed *errdrop) analyzeFunc(decl *ast.FuncDecl, report bool) bool {
	pass := ed.pass
	fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}

	// Locals holding a contract error (err := sys.Run(...) patterns):
	// returning one forwards the contract.
	contractErrVars := make(map[types.Object]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		if ed.contractCallOf(st.Rhs[0]) == nil {
			return true
		}
		if len(st.Lhs) == 0 {
			return true
		}
		last, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident)
		if !ok || last.Name == "_" {
			return true
		}
		if obj := pass.Info.Defs[last]; obj != nil {
			contractErrVars[obj] = true
		} else if obj := pass.Info.Uses[last]; obj != nil {
			contractErrVars[obj] = true
		}
		return true
	})

	changed := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := ed.contractCallOf(call)
			if callee == nil {
				return true
			}
			if report {
				sig := callee.Type().(*types.Signature)
				blanks := strings.Repeat("_, ", sig.Results().Len()-1) + "_ = "
				fix := &SuggestedFix{
					Message: "make the discarded error explicit",
					Edits:   []TextEdit{pass.Edit(call.Pos(), call.Pos(), blanks)},
				}
				pass.ReportFixf(call.Pos(), fix,
					"error returned by %s is silently discarded; handle it or make the discard explicit (then justify it with //lint:allow errdrop)",
					callee.Name())
			}
		case *ast.GoStmt:
			if callee := ed.contractCallOf(st.Call); callee != nil && report {
				pass.Reportf(st.Pos(),
					"error returned by %s is discarded by go; run it through a worker that collects errors (fleet.Run) or handle it in the goroutine",
					callee.Name())
			}
		case *ast.DeferStmt:
			if callee := ed.contractCallOf(st.Call); callee != nil && report {
				pass.Reportf(st.Pos(),
					"error returned by %s is discarded by defer; wrap it in a closure that handles the error",
					callee.Name())
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			callee := ed.contractCallOf(st.Rhs[0])
			if callee == nil || len(st.Lhs) == 0 {
				return true
			}
			last, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident)
			if ok && last.Name == "_" && report {
				pass.Reportf(last.Pos(),
					"error returned by %s is discarded into _; handle it or justify the discard with //lint:allow errdrop",
					callee.Name())
			}
		case *ast.ReturnStmt:
			// Forwarding: the function's own last result is an error fed
			// by a contract call (directly or through a local).
			sig := fn.Type().(*types.Signature)
			if !lastResultIsError(sig) || len(st.Results) == 0 {
				return true
			}
			lastExpr := st.Results[len(st.Results)-1]
			forwards := false
			if len(st.Results) == 1 && sig.Results().Len() > 1 {
				// return f(...) covering all results
				forwards = ed.contractCallOf(lastExpr) != nil
			} else if ed.contractCallOf(lastExpr) != nil {
				forwards = true
			} else if id, ok := ast.Unparen(lastExpr).(*ast.Ident); ok {
				obj := pass.Info.Uses[id]
				forwards = obj != nil && contractErrVars[obj]
			}
			if forwards && pass.ExportFact(fn, contractErrFact{}) {
				changed = true
			}
		}
		return true
	})
	return changed
}
