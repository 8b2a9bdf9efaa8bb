package analysis

import (
	"go/ast"
	"strings"
)

// CtxBg enforces the cancellation-plumbing contract that per-run deadlines
// (rfidest.WithTimeout) and batch cancellation rest on: library code must
// thread its caller's context instead of minting a fresh root with
// context.Background() or context.TODO(). A silently-minted root context
// is how per-trial deadlines and batch cancellation get severed from the
// work they are supposed to bound (the pre-fix runJob bug: trials ran
// under context.Background() and ignored the batch deadline entirely).
//
// Covered packages are the module root and everything under internal/;
// cmd/ and examples/ are allowlisted because a process entry point is
// exactly where a root context is supposed to be created. In-scope
// deliberate roots — the nil-ctx default of the root package's run loop,
// the root a nil-ctx RunSession.Step hangs its WithTimeout deadline on,
// and the experiment helper's detached pool — are suppressed at the use
// site with //lint:allow ctxbg so each exemption stays visible and
// reasoned.
var CtxBg = &Analyzer{
	Name: "ctxbg",
	Doc: "forbid context.Background()/context.TODO() outside process entry points (cmd/, examples/); " +
		"library code must thread its caller's context so deadlines and cancellation reach the work they bound",
	AppliesTo: func(rel string) bool {
		return !strings.HasPrefix(rel, "cmd/") && rel != "cmd" &&
			!strings.HasPrefix(rel, "examples/") && rel != "examples"
	},
	Run: runCtxBg,
}

var forbiddenCtxRoots = map[string]bool{
	"Background": true,
	"TODO":       true,
}

func runCtxBg(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgName, funName := calleePackageFunc(pass.Info, call)
			if pkgName == nil || pkgName.Imported().Path() != "context" {
				return true
			}
			if forbiddenCtxRoots[funName] {
				pass.Reportf(call.Pos(),
					"context.%s mints a root context inside library code, severing the caller's deadline and cancellation: thread the caller's ctx instead (a deliberate root needs a //lint:allow ctxbg comment)",
					funName)
			}
			return true
		})
	}
	return nil
}
