package analysis

import (
	"go/ast"
	"go/types"
)

// RoundLoop enforces the single-driver contract of the round-structured
// execution model: protocol rounds happen in exactly one place —
// channel.StepRound (and its Drive loop), which the root run loop and the
// interleaving scheduler funnel through. Driving a stepper by hand
// (x.Plan() / x.Absorb(...)) re-creates the pre-refactor world where each
// caller improvises its own loop and silently drops what the driver
// provides: per-round context cancellation, phase-span bookkeeping, the
// seed-draw order that bit-identity pins, and the stall drain after every
// engine call.
//
// A call is only a violation when it *drives*: composition is exempt. A
// stepper that wraps another stepper forwards Plan/Absorb from inside its
// own Plan or Absorb methods (the seven protocols that open with a LOF
// rough phase forward to it this way, and BFCE-multi to its inner BFCE
// runs), and those forwarding frames are part of the machine, not a
// second driver. internal/channel (the driver itself) and
// internal/sched (whose Runners step whole sessions, not raw steppers)
// own the loop and are out of scope.
var RoundLoop = &Analyzer{
	Name: "roundloop",
	Doc: "forbid hand-driving a round stepper: Plan/Absorb on a Plan+Absorb machine may only be called by " +
		"the shared driver (channel.StepRound/Drive) or forwarded from another stepper's Plan/Absorb; " +
		"an improvised round loop loses cancellation, phase spans and the pinned seed-draw order",
	AppliesTo: func(rel string) bool {
		return rel != "internal/channel" && rel != "internal/sched"
	},
	Run: runRoundLoop,
}

// forwardingFrames are the method names inside which a stepper may
// legitimately call another stepper's Plan/Absorb: the call is one machine
// delegating a round to a sub-machine, and the real driver sits above both.
var forwardingFrames = map[string]bool{
	"Plan":   true,
	"Absorb": true,
}

func runRoundLoop(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil && forwardingFrames[fd.Name.Name] {
				continue // stepper composition, not driving
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				if name != "Plan" && name != "Absorb" {
					return true
				}
				callee := CalleeFunc(pass.Info, call)
				if callee == nil || callee.Type().(*types.Signature).Recv() == nil {
					return true // not a method call
				}
				recv := pass.Info.Types[sel.X].Type
				if recv == nil || !isStepperType(recv, pass.Pkg) {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s.%s drives a protocol round by hand; rounds must go through channel.StepRound/Drive (or a sched.Runner stepping whole sessions) so cancellation, phase spans and the seed-draw order stay with the one driver",
					types.TypeString(recv, types.RelativeTo(pass.Pkg)), name)
				return true
			})
		}
	}
	return nil
}

// isStepperType reports whether t carries the full round-machine pair —
// both Plan and Absorb methods. A type with only one of them (a query
// planner, an event sink) is not a stepper and stays out of scope.
func isStepperType(t types.Type, from *types.Package) bool {
	return hasMethodNamed(t, "Plan", from) && hasMethodNamed(t, "Absorb", from)
}

func hasMethodNamed(t types.Type, name string, from *types.Package) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, from, name)
	fn, ok := obj.(*types.Func)
	return ok && fn != nil
}
