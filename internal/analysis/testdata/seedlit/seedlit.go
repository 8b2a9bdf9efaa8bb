// Package seedlittest seeds constant-root-seed calls for the seedlit
// golden test, alongside the derived-seed and domain-tag idioms that must
// stay silent.
package seedlittest

import "rfidest/internal/xrand"

// pinnedStream hard-codes the generator seed: every caller replays the
// same sequence no matter what the experiment configured.
func pinnedStream() uint64 {
	rng := xrand.New(42) // want `constant root seed in xrand\.New pins this stream`
	return rng.Uint64()
}

// pinnedCombine pins the root word of a Combine; per-trial salts cannot
// rescue independence from a fixed root.
func pinnedCombine(trial uint64) uint64 {
	return xrand.Combine(0xa5, trial) // want `constant root seed in xrand\.Combine`
}

const fixedSeed = 7

// pinnedNamedConst shows that named constants are just as pinned as
// literals.
func pinnedNamedConst() *xrand.Rand {
	return xrand.NewStream(fixedSeed, 0x5eed) // want `constant root seed in xrand\.NewStream`
}

// pinnedSplitMix covers the fourth constructor.
func pinnedSplitMix() *xrand.SplitMix64 {
	return xrand.NewSplitMix64(1) // want `constant root seed in xrand\.NewSplitMix64`
}

// pinnedValueStream covers the by-value constructor, which hot paths use
// to hold a stream inside a struct without a heap generator.
func pinnedValueStream() xrand.Rand {
	return xrand.MakeStream(3, 0xba115) // want `constant root seed in xrand\.MakeStream`
}

// derived threads a root seed through and uses literals only as
// domain-separation tags: the house idiom, never flagged.
func derived(rootSeed, trial uint64) uint64 {
	return xrand.Combine(rootSeed, 0xa5, trial)
}

// seededStream takes its seed from the caller: never flagged.
func seededStream(seed uint64) *xrand.Rand {
	return xrand.NewStream(seed, 0x5eed)
}

// seededValueStream is the by-value form of seededStream: never flagged.
func seededValueStream(seed uint64) xrand.Rand {
	return xrand.MakeStream(seed, 0x5eed)
}

// quickCheck is a sanctioned pinned probe (e.g. a smoke-test helper),
// kept visible with a reasoned suppression.
func quickCheck() *xrand.Rand {
	return xrand.New(1) //lint:allow seedlit golden-test fixture for suppression
}
