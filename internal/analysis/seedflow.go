package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// SeedFlow is the interprocedural upgrade of seedlit: it tracks the
// provenance of root seeds through call chains. seedlit catches a
// literal written directly into xrand.New(...); seedflow catches the
// laundered forms —
//
//   - a literal passed to a constructor whose parameter flows into an
//     xrand root position two calls down (NewEngine(42) where NewEngine
//     eventually calls xrand.New(seed)),
//   - a helper that returns a constant ("func defaultSeed() uint64
//     { return 0xfeed }") used as a root seed,
//   - a local variable holding only constant-derived values reaching a
//     root position.
//
// The analysis is fact-driven: for every function it learns whether a
// parameter flows into a root-seed position (seedParamFact), whether the
// function returns a constant-derived value (constSeedFact), and whether
// its return value is derived from one of its parameters
// (seedRetParamFact). Facts propagate across package boundaries through
// the Lint run's shared store, so a constructor in internal/channel
// taints its call sites in internal/core. Syntactically constant
// arguments directly in an xrand root position are left to seedlit —
// the two analyzers partition the bug class, not overlap on it.
//
// xrand.Combine root words are deliberately NOT a sink: a Combine result
// used as a domain-separation salt of an outer Combine that carries the
// real root seed is the house idiom (experiment's tagSession), and
// flagging inner Combine roots would outlaw it. Constant-derived Combine
// RESULTS still taint: xrand.New(xrand.Combine(1, 2)) is reported.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "track constant seed provenance through call chains into xrand generator roots; " +
		"a literal laundered through a constructor pins the stream as surely as one written in place",
	AppliesTo: func(rel string) bool {
		return !strings.HasPrefix(rel, "examples/") && rel != "examples"
	},
	Interprocedural: true,
	Run:             runSeedFlow,
}

// constSeedFact marks a function whose return value derives only from
// compile-time constants.
type constSeedFact struct{}

func (constSeedFact) String() string { return "returns a constant-derived seed" }

// seedParamFact marks a function parameter that flows (transitively)
// into an xrand generator root position.
type seedParamFact struct{ Index int }

func (f seedParamFact) String() string {
	return fmt.Sprintf("root seed flows in through parameter %d", f.Index)
}

// seedRetParamFact marks a function whose return value derives from its
// Index-th parameter (a seed-threading helper like
// "func salt(seed uint64) uint64 { return xrand.Combine(seed, tag) }").
type seedRetParamFact struct{ Index int }

func (f seedRetParamFact) String() string {
	return fmt.Sprintf("returns a value derived from parameter %d", f.Index)
}

// xrandRootFuncs are the generator constructors whose first argument is
// a root seed. Combine is handled as provenance, not as a sink (see the
// analyzer doc).
var xrandRootFuncs = map[string]bool{
	"New":           true,
	"NewStream":     true,
	"MakeStream":    true,
	"NewSplitMix64": true,
}

// xrandDeriveFuncs propagate the provenance of their arguments into
// their result.
var xrandDeriveFuncs = map[string]bool{
	"Combine": true,
	"Mix64":   true,
}

func isXrandPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "rfidest/internal/xrand" || strings.HasSuffix(path, "/internal/xrand")
}

// seed provenance lattice: unknown ⊔ const ⊔ param(i).
type provKind int

const (
	provUnknown provKind = iota
	provConst
	provParam
)

type prov struct {
	kind  provKind
	param int // valid when kind == provParam
}

func runSeedFlow(pass *Pass) error {
	sf := &seedflow{pass: pass}
	decls := packageFuncDecls(pass)
	// Fact fixpoint: facts about one sibling can create sinks in another
	// (a laundering chain inside one package), so iterate until stable.
	for range decls {
		changed := false
		for _, d := range decls {
			if sf.analyzeFunc(d, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, d := range decls {
		sf.analyzeFunc(d, true)
	}
	return nil
}

// packageFuncDecls lists the package's function declarations with bodies
// in source order.
func packageFuncDecls(pass *Pass) []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	return decls
}

type seedflow struct {
	pass *Pass
}

// analyzeFunc computes seed provenance inside one function, exporting
// facts about it; with report set it also emits the diagnostics. It
// reports whether any new fact was exported.
func (sf *seedflow) analyzeFunc(decl *ast.FuncDecl, report bool) bool {
	pass := sf.pass
	fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	params := make(map[types.Object]int)
	if decl.Type.Params != nil {
		idx := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	ev := &seedEval{pass: pass, params: params, constLocals: make(map[types.Object]bool)}
	// First sweep: settle which locals are constant-derived (assignment
	// order approximated by source order; a single reassignment to a
	// non-constant value demotes the local).
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil || len(st.Rhs) != len(st.Lhs) {
					continue
				}
				if ev.prov(st.Rhs[i]).kind == provConst {
					if _, demoted := ev.nonConstLocals[obj]; !demoted {
						ev.constLocals[obj] = true
					}
				} else {
					delete(ev.constLocals, obj)
					ev.demote(obj)
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if name.Name == "_" || i >= len(st.Values) {
					continue
				}
				obj := pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				if ev.prov(st.Values[i]).kind == provConst {
					ev.constLocals[obj] = true
				}
			}
		}
		return true
	})

	changed := false
	// Sink sweep: xrand constructor roots and fact-marked parameters.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := CalleeFunc(pass.Info, call)
		if callee == nil {
			return true
		}
		sinks := sf.sinkArgs(callee, call)
		for _, s := range sinks {
			arg := call.Args[s.index]
			if isConst(pass.Info, arg) {
				// A syntactic constant directly in an xrand root is
				// seedlit's finding; one laundered through a parameter
				// is ours.
				if report && !s.xrand {
					pass.Reportf(arg.Pos(),
						"constant seed flows through %s into an xrand generator root, pinning the stream regardless of the configured experiment seed; thread the experiment seed in instead",
						callee.Name())
				}
				continue
			}
			switch p := ev.prov(arg); p.kind {
			case provConst:
				if report {
					pass.Reportf(arg.Pos(),
						"seed derived only from constants reaches the root position of %s, pinning the stream regardless of the configured experiment seed; derive it from the experiment seed instead",
						callee.Name())
				}
			case provParam:
				if pass.ExportFact(fn, seedParamFact{Index: p.param}) {
					changed = true
				}
			}
		}
		return true
	})

	// Return sweep: does the function return constant- or
	// parameter-derived values? Only single-result integer returns are
	// seed-shaped enough to matter.
	if res := fn.Type().(*types.Signature).Results(); res.Len() == 1 {
		if basic, ok := res.At(0).Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsInteger != 0 {
			kind, param, any := provConst, -1, false
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // returns inside literals are not ours
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				any = true
				switch p := ev.prov(ret.Results[0]); p.kind {
				case provConst:
					// const stays const; param absorbs const
				case provParam:
					if kind == provParam && param != p.param {
						kind = provUnknown
					} else if kind != provUnknown {
						kind, param = provParam, p.param
					}
				default:
					kind = provUnknown
				}
				return true
			})
			if any {
				switch kind {
				case provConst:
					if pass.ExportFact(fn, constSeedFact{}) {
						changed = true
					}
				case provParam:
					if pass.ExportFact(fn, seedRetParamFact{Index: param}) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

type seedSink struct {
	index int
	xrand bool // true when the sink is an xrand constructor itself
}

// sinkArgs returns which argument positions of a call are root-seed
// sinks: position 0 of xrand generator constructors, plus every
// fact-marked parameter of module functions.
func (sf *seedflow) sinkArgs(callee *types.Func, call *ast.CallExpr) []seedSink {
	var sinks []seedSink
	seen := make(map[int]bool)
	if isXrandPkg(callee.Pkg()) && xrandRootFuncs[callee.Name()] && len(call.Args) > 0 {
		// The direct root sink claims index 0 outright: the xrand
		// constructors' own bodies thread seed onward, so a fact pass over
		// xrand also marks them seedParam — without precedence here that
		// stacked sink would re-report syntactic constants seedlit owns.
		sinks = append(sinks, seedSink{index: 0, xrand: true})
		seen[0] = true
	}
	for _, f := range sf.pass.FactsOn(callee) {
		if pf, ok := f.(seedParamFact); ok && pf.Index < len(call.Args) && call.Ellipsis == 0 && !seen[pf.Index] {
			seen[pf.Index] = true
			sinks = append(sinks, seedSink{index: pf.Index})
		}
	}
	return sinks
}

// seedEval evaluates expression provenance inside one function.
type seedEval struct {
	pass           *Pass
	params         map[types.Object]int
	constLocals    map[types.Object]bool
	nonConstLocals map[types.Object]bool
}

func (ev *seedEval) demote(obj types.Object) {
	if ev.nonConstLocals == nil {
		ev.nonConstLocals = make(map[types.Object]bool)
	}
	ev.nonConstLocals[obj] = true
}

func (ev *seedEval) factsOf(fn *types.Func) []Fact { return ev.pass.FactsOn(fn) }

func (ev *seedEval) prov(e ast.Expr) prov {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return prov{kind: provConst}
	case *ast.Ident:
		if ev.pass.Info.Types[x].Value != nil {
			return prov{kind: provConst}
		}
		obj := ev.pass.Info.Uses[x]
		if obj == nil {
			obj = ev.pass.Info.Defs[x]
		}
		if obj == nil {
			return prov{}
		}
		if idx, ok := ev.params[obj]; ok {
			return prov{kind: provParam, param: idx}
		}
		if ev.constLocals[obj] {
			return prov{kind: provConst}
		}
		return prov{}
	case *ast.UnaryExpr:
		return ev.prov(x.X)
	case *ast.BinaryExpr:
		return mergeProv(ev.prov(x.X), ev.prov(x.Y))
	case *ast.CallExpr:
		// Conversion: uint64(x) keeps x's provenance.
		if tv, ok := ev.pass.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return ev.prov(x.Args[0])
		}
		callee := CalleeFunc(ev.pass.Info, x)
		if callee == nil {
			return prov{}
		}
		if isXrandPkg(callee.Pkg()) && xrandDeriveFuncs[callee.Name()] {
			p := prov{kind: provConst}
			for _, arg := range x.Args {
				p = mergeProv(p, ev.prov(arg))
			}
			return p
		}
		for _, f := range ev.factsOf(callee) {
			switch ft := f.(type) {
			case constSeedFact:
				return prov{kind: provConst}
			case seedRetParamFact:
				if ft.Index < len(x.Args) && x.Ellipsis == 0 {
					return ev.prov(x.Args[ft.Index])
				}
			}
		}
		return prov{}
	default:
		if tv, ok := ev.pass.Info.Types[e]; ok && tv.Value != nil {
			return prov{kind: provConst}
		}
		return prov{}
	}
}

// mergeProv joins two operand provenances: constants absorb into either
// side, a parameter wins over constants, anything unknown poisons.
func mergeProv(a, b prov) prov {
	if a.kind == provUnknown || b.kind == provUnknown {
		return prov{}
	}
	if a.kind == provParam {
		return a
	}
	if b.kind == provParam {
		return b
	}
	return prov{kind: provConst}
}
