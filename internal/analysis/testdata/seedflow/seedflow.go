// Package seedflowtest seeds interprocedural constant-seed flows for the
// seedflow golden test: literals laundered through constructors, constant
// helpers feeding roots, and the threaded-seed idioms that must stay
// silent. Syntactic constants directly in xrand roots are deliberately
// absent — those belong to the seedlit testdata (the analyzers partition
// the bug class).
package seedflowtest

import "rfidest/internal/xrand"

// newEngine threads its seed into an xrand generator root: the analysis
// learns that callers must not pass constants.
func newEngine(seed uint64) *xrand.Rand { // wantfact `root seed flows in through parameter 0`
	return xrand.New(seed)
}

// launder passes a literal through the constructor — invisible to the
// file-local seedlit, caught by fact propagation.
func launder() *xrand.Rand {
	return newEngine(42) // want `constant seed flows through newEngine`
}

// newValueEngine roots a by-value stream in its seed, the way the frame
// engines hold theirs.
func newValueEngine(seed uint64) xrand.Rand { // wantfact `root seed flows in through parameter 0`
	return xrand.MakeStream(seed, 0xba115)
}

// launderValue pins the by-value root through the constructor.
func launderValue() xrand.Rand {
	return newValueEngine(43) // want `constant seed flows through newValueEngine`
}

// deeper forwards its seed one more hop; the parameter fact is
// transitive.
func deeper(seed uint64) *xrand.Rand { // wantfact `root seed flows in through parameter 0`
	return newEngine(seed)
}

func launderDeep() *xrand.Rand {
	return deeper(41) // want `constant seed flows through deeper`
}

// defaultSeed returns a constant: using it as a root seed pins the
// stream just like writing the literal in place.
func defaultSeed() uint64 { // wantfact `returns a constant-derived seed`
	return 0xfeed
}

func useDefault() *xrand.Rand {
	return xrand.New(defaultSeed()) // want `seed derived only from constants`
}

// viaLocal pins through a local variable rather than a literal in place.
func viaLocal() *xrand.Rand {
	s := uint64(99)
	return xrand.New(s) // want `seed derived only from constants`
}

// saltOf derives its result from its parameter — a seed-threading
// helper, so constant arguments taint its result.
func saltOf(seed uint64) uint64 { // wantfact `returns a value derived from parameter 0`
	return xrand.Combine(seed, 0x5a17)
}

func useSalt() *xrand.Rand {
	return xrand.New(saltOf(3)) // want `seed derived only from constants`
}

// threaded is the correct idiom end to end: the root seed arrives as a
// parameter and literals appear only as domain-separation salts.
func threaded(rootSeed uint64) *xrand.Rand { // wantfact `root seed flows in through parameter 0`
	return newEngine(xrand.Combine(rootSeed, 0x77))
}

// threadedSalt keeps a parameter-derived value flowing cleanly through
// the helper chain: never flagged.
func threadedSalt(rootSeed uint64, trial int) *xrand.Rand { // wantfact `root seed flows in through parameter 0`
	return newEngine(saltOf(rootSeed) + uint64(trial))
}

// sanctioned is a deliberately pinned probe, kept visible with a
// reasoned suppression.
func sanctioned() *xrand.Rand {
	return newEngine(7) //lint:allow seedflow golden-test fixture for suppression
}
