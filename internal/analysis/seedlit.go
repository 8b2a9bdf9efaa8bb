package analysis

import (
	"go/ast"
	"strings"
)

// seedRootFuncs are the xrand constructors/combiners whose FIRST argument
// is a root seed. Later arguments are domain-separation salts, where
// constant literals are exactly the idiom (xrand.Combine(seed, 0x5757)),
// so only the first position is checked.
var seedRootFuncs = map[string]bool{
	"New":           true,
	"NewStream":     true,
	"MakeStream":    true,
	"NewSplitMix64": true,
	"Combine":       true,
}

// SeedLit flags constant root seeds passed to xrand constructors outside
// tests and examples. A literal in the seed position pins that stream to
// one fixed sequence no matter what experiment seed the caller configured
// — trials silently stop being independent and every "replication" reuses
// identical randomness. Root seeds must be threaded in from configuration
// (and split with xrand.Combine(rootSeed, domainTag, ...)); _test.go files
// and examples/ may hard-code seeds for reproducibility of their output.
var SeedLit = &Analyzer{
	Name: "seedlit",
	Doc: "flag constant-literal root seeds passed to xrand.New*/MakeStream/Combine outside tests and examples; " +
		"a pinned seed silently destroys trial independence",
	AppliesTo: func(rel string) bool {
		return !strings.HasPrefix(rel, "examples/") && rel != "examples"
	},
	Run: runSeedLit,
}

func runSeedLit(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgName, funName := calleePackageFunc(pass.Info, call)
			if pkgName == nil || !seedRootFuncs[funName] || len(call.Args) == 0 {
				return true
			}
			if path := pkgName.Imported().Path(); path != "rfidest/internal/xrand" && !strings.HasSuffix(path, "/internal/xrand") {
				return true
			}
			if seed := call.Args[0]; isConst(pass.Info, seed) {
				pass.Reportf(seed.Pos(),
					"constant root seed in xrand.%s pins this stream regardless of the configured experiment seed, destroying trial independence; derive it as xrand.Combine(rootSeed, ...)",
					funName)
			}
			return true
		})
	}
	return nil
}
