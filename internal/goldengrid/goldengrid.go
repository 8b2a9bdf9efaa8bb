// Package goldengrid holds the repository's golden regression grid: 74
// (system, estimator, salt) cases with every field of the expected
// Estimate pinned exactly. The grid was captured on the pre-packing
// []bool frame representation and has survived, bit-identical, the
// word-packing, observability, fault-injection and round-structured
// execution refactors; every execution path added since (Run, the
// StartRun/Step round loop, the interleaving scheduler, the fleet modes)
// is required to reproduce it field for field. Four rows were captured
// again when the synthetic engine began sampling only the heard prefix of
// BFCE's probe and rough frames: synthetic BFCE and BFCE-multi at both
// salts (BFCE's estimates kept N, Seconds and Slots; only their metered
// transmissions moved). Sixteen synthetic rows were captured again when
// the synthetic engine began writing saturated slots without drawing
// them, throwing only the responses that pass a lottery frame's head and
// throwing up to 32 responses per slot: ART, EZB, LOF, MLE, PET, ZOE and
// ZOE-batched at both salts, and FNEB and SRC at 0xdecaf.
//
// The package exists so multiple test packages — the root regression
// tests, the scheduler replay tests, the fleet equivalence tests — can
// share one table instead of re-pinning 74 float literals each.
//
// Regenerate (only if behavior is intentionally changed) by running each
// case and printing the Estimate with %#v: float fields round-trip
// exactly through the literals below.
package goldengrid

import (
	"fmt"

	"rfidest"
)

// Case is one pinned regression point, run at Epsilon = Delta = 0.1.
type Case struct {
	System    string // key for NewSystem
	Estimator string // registry name
	Salt      uint64
	Want      rfidest.Estimate
}

// Epsilon and Delta are the accuracy requirement every grid case runs at.
const (
	Epsilon = 0.1
	Delta   = 0.1
)

// NewSystem builds the deployment a case's System key names. Systems are
// stateless with respect to salted runs, so one instance may serve any
// number of cases.
func NewSystem(key string) (*rfidest.System, error) {
	switch key {
	case "tag-n20000-seed42":
		return rfidest.NewSystem(20000, rfidest.WithSeed(42)), nil
	case "synthetic-n50000-seed7":
		return rfidest.NewSystem(50000, rfidest.WithSeed(7), rfidest.WithSynthetic()), nil
	case "noisy-n10000-seed9":
		return rfidest.NewSystem(10000, rfidest.WithSeed(9), rfidest.WithNoise(0.01, 0.02)), nil
	case "paperhash-n20000-seed42":
		return rfidest.NewSystem(20000, rfidest.WithSeed(42), rfidest.WithPaperTagHash()), nil
	default:
		return nil, fmt.Errorf("goldengrid: unknown system %q", key)
	}
}

// Cases returns the full grid. The returned slice is shared; treat it as
// read-only.
func Cases() []Case { return cases }

var cases = []Case{
	{"tag-n20000-seed42", "BFCE", 0x1, rfidest.Estimate{N: 21121.473455566364, Seconds: 0.19091407999999999, Slots: 9248, ReaderBits: 384, Rounds: 1, Guarded: true, TagTransmissions: 674}},
	{"tag-n20000-seed42", "BFCE", 0xdecaf, rfidest.Estimate{N: 20202.696698507996, Seconds: 0.19091407999999999, Slots: 9248, ReaderBits: 384, Rounds: 1, Guarded: true, TagTransmissions: 647}},
	{"tag-n20000-seed42", "BFCE-multi", 0x1, rfidest.Estimate{N: 20425.573463095796, Seconds: 0.95457039999999993, Slots: 46240, ReaderBits: 1920, Rounds: 5, Guarded: true, TagTransmissions: 3085}},
	{"tag-n20000-seed42", "BFCE-multi", 0xdecaf, rfidest.Estimate{N: 20001.944993180594, Seconds: 0.95940335999999982, Slots: 46304, ReaderBits: 1984, Rounds: 5, Guarded: true, TagTransmissions: 3263}},
	{"tag-n20000-seed42", "ZOE", 0x1, rfidest.Estimate{N: 21035.223516219161, Seconds: 1.4067207999999998, Slots: 1075, ReaderBits: 24480, Rounds: 11, Guarded: true, TagTransmissions: 201968}},
	{"tag-n20000-seed42", "ZOE", 0xdecaf, rfidest.Estimate{N: 19880.846694345546, Seconds: 1.4067207999999998, Slots: 1075, ReaderBits: 24480, Rounds: 11, Guarded: true, TagTransmissions: 201058}},
	{"tag-n20000-seed42", "ZOE-batched", 0x1, rfidest.Estimate{N: 20572.42376154858, Seconds: 0.041439839999999999, Slots: 1075, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 202040}},
	{"tag-n20000-seed42", "ZOE-batched", 0xdecaf, rfidest.Estimate{N: 20111.233647116034, Seconds: 0.041439839999999999, Slots: 1075, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 201093}},
	{"tag-n20000-seed42", "SRC", 0x1, rfidest.Estimate{N: 19680.453016800391, Seconds: 0.09049088000000001, Slots: 3897, ReaderBits: 352, Rounds: 6, Guarded: true, TagTransmissions: 31531}},
	{"tag-n20000-seed42", "SRC", 0xdecaf, rfidest.Estimate{N: 19466.193672910682, Seconds: 0.09049088000000001, Slots: 3897, ReaderBits: 352, Rounds: 6, Guarded: true, TagTransmissions: 21451}},
	{"tag-n20000-seed42", "LOF", 0x1, rfidest.Estimate{N: 12165.501317546905, Seconds: 0.0241648, Slots: 320, ReaderBits: 320, Rounds: 10, Guarded: false, TagTransmissions: 200000}},
	{"tag-n20000-seed42", "LOF", 0xdecaf, rfidest.Estimate{N: 22701.628175711525, Seconds: 0.0241648, Slots: 320, ReaderBits: 320, Rounds: 10, Guarded: false, TagTransmissions: 200000}},
	{"tag-n20000-seed42", "UPE", 0x1, rfidest.Estimate{N: 20485.365815346297, Seconds: 0.78540736, Slots: 4096, ReaderBits: 256, Rounds: 4, Guarded: true, TagTransmissions: 37532}},
	{"tag-n20000-seed42", "UPE", 0xdecaf, rfidest.Estimate{N: 20583.47477240099, Seconds: 0.78540736, Slots: 4096, ReaderBits: 256, Rounds: 4, Guarded: true, TagTransmissions: 37651}},
	{"tag-n20000-seed42", "EZB", 0x1, rfidest.Estimate{N: 18150.221971470142, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 202603}},
	{"tag-n20000-seed42", "EZB", 0xdecaf, rfidest.Estimate{N: 19859.883424384152, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 201451}},
	{"tag-n20000-seed42", "FNEB", 0x1, rfidest.Estimate{N: 21493.2018834386, Seconds: 0.76746479999999995, Slots: 13676, ReaderBits: 8992, Rounds: 281, Guarded: true, TagTransmissions: 200273}},
	{"tag-n20000-seed42", "FNEB", 0xdecaf, rfidest.Estimate{N: 21719.517169555329, Seconds: 1.0118663999999999, Slots: 26621, ReaderBits: 8992, Rounds: 281, Guarded: true, TagTransmissions: 200273}},
	{"tag-n20000-seed42", "MLE", 0x1, rfidest.Estimate{N: 19852.365768391974, Seconds: 0.036852000000000003, Slots: 832, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 201306}},
	{"tag-n20000-seed42", "MLE", 0xdecaf, rfidest.Estimate{N: 19971.793916263894, Seconds: 0.036852000000000003, Slots: 832, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 200721}},
	{"tag-n20000-seed42", "ART", 0x1, rfidest.Estimate{N: 18514.79014234557, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 201123}},
	{"tag-n20000-seed42", "ART", 0xdecaf, rfidest.Estimate{N: 19579.775386668836, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 200619}},
	{"tag-n20000-seed42", "PET", 0x1, rfidest.Estimate{N: 17559.293470774679, Seconds: 0.91327007999999998, Slots: 820, ReaderBits: 9348, Rounds: 164, Guarded: true, TagTransmissions: 3280000}},
	{"tag-n20000-seed42", "PET", 0xdecaf, rfidest.Estimate{N: 20358.756296782063, Seconds: 0.91327007999999998, Slots: 820, ReaderBits: 9348, Rounds: 164, Guarded: true, TagTransmissions: 3280000}},
	{"synthetic-n50000-seed7", "BFCE", 0x1, rfidest.Estimate{N: 49773.311471340974, Seconds: 0.19091407999999999, Slots: 9248, ReaderBits: 384, Rounds: 1, Guarded: true, TagTransmissions: 731}},
	{"synthetic-n50000-seed7", "BFCE", 0xdecaf, rfidest.Estimate{N: 52067.840763953493, Seconds: 0.19091407999999999, Slots: 9248, ReaderBits: 384, Rounds: 1, Guarded: true, TagTransmissions: 756}},
	{"synthetic-n50000-seed7", "BFCE-multi", 0x1, rfidest.Estimate{N: 49392.26824977279, Seconds: 0.95457039999999993, Slots: 46240, ReaderBits: 1920, Rounds: 5, Guarded: true, TagTransmissions: 3782}},
	{"synthetic-n50000-seed7", "BFCE-multi", 0xdecaf, rfidest.Estimate{N: 51372.31525385679, Seconds: 0.95457039999999993, Slots: 46240, ReaderBits: 1920, Rounds: 5, Guarded: true, TagTransmissions: 4058}},
	{"synthetic-n50000-seed7", "ZOE", 0x1, rfidest.Estimate{N: 50388.661869109041, Seconds: 1.4067207999999998, Slots: 1075, ReaderBits: 24480, Rounds: 11, Guarded: true, TagTransmissions: 501529}},
	{"synthetic-n50000-seed7", "ZOE", 0xdecaf, rfidest.Estimate{N: 47968.709089393531, Seconds: 1.4067207999999998, Slots: 1075, ReaderBits: 24480, Rounds: 11, Guarded: true, TagTransmissions: 501668}},
	{"synthetic-n50000-seed7", "ZOE-batched", 0x1, rfidest.Estimate{N: 50894.85245544662, Seconds: 0.041439839999999999, Slots: 1075, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 501521}},
	{"synthetic-n50000-seed7", "ZOE-batched", 0xdecaf, rfidest.Estimate{N: 48461.100645904429, Seconds: 0.041439839999999999, Slots: 1075, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 501673}},
	{"synthetic-n50000-seed7", "SRC", 0x1, rfidest.Estimate{N: 50855.079609020679, Seconds: 0.09049088000000001, Slots: 3897, ReaderBits: 352, Rounds: 6, Guarded: true, TagTransmissions: 53653}},
	{"synthetic-n50000-seed7", "SRC", 0xdecaf, rfidest.Estimate{N: 48573.746169187427, Seconds: 0.09049088000000001, Slots: 3897, ReaderBits: 352, Rounds: 6, Guarded: true, TagTransmissions: 64449}},
	{"synthetic-n50000-seed7", "LOF", 0x1, rfidest.Estimate{N: 39525.830392209682, Seconds: 0.0241648, Slots: 320, ReaderBits: 320, Rounds: 10, Guarded: false, TagTransmissions: 500000}},
	{"synthetic-n50000-seed7", "LOF", 0xdecaf, rfidest.Estimate{N: 36878.903773819875, Seconds: 0.0241648, Slots: 320, ReaderBits: 320, Rounds: 10, Guarded: false, TagTransmissions: 500000}},
	{"synthetic-n50000-seed7", "UPE", 0x1, rfidest.Estimate{N: 49146.202896386087, Seconds: 0.98175919999999994, Slots: 5120, ReaderBits: 320, Rounds: 5, Guarded: true, TagTransmissions: 96927}},
	{"synthetic-n50000-seed7", "UPE", 0xdecaf, rfidest.Estimate{N: 49801.650298696935, Seconds: 0.98175919999999994, Slots: 5120, ReaderBits: 320, Rounds: 5, Guarded: true, TagTransmissions: 96738}},
	{"synthetic-n50000-seed7", "EZB", 0x1, rfidest.Estimate{N: 46040.789767311871, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 501993}},
	{"synthetic-n50000-seed7", "EZB", 0xdecaf, rfidest.Estimate{N: 51211.579758598637, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 502195}},
	{"synthetic-n50000-seed7", "FNEB", 0x1, rfidest.Estimate{N: 51852.579252298077, Seconds: 0.93172080000000002, Slots: 22376, ReaderBits: 8992, Rounds: 281, Guarded: true, TagTransmissions: 500271}},
	{"synthetic-n50000-seed7", "FNEB", 0xdecaf, rfidest.Estimate{N: 49074.249185070053, Seconds: 0.95515087999999992, Slots: 23617, ReaderBits: 8992, Rounds: 281, Guarded: true, TagTransmissions: 500271}},
	{"synthetic-n50000-seed7", "MLE", 0x1, rfidest.Estimate{N: 48310.907191099075, Seconds: 0.036852000000000003, Slots: 832, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 500981}},
	{"synthetic-n50000-seed7", "MLE", 0xdecaf, rfidest.Estimate{N: 51627.451028937867, Seconds: 0.036852000000000003, Slots: 832, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 501094}},
	{"synthetic-n50000-seed7", "ART", 0x1, rfidest.Estimate{N: 44353.011885527078, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 500850}},
	{"synthetic-n50000-seed7", "ART", 0xdecaf, rfidest.Estimate{N: 48241.662892995198, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 500951}},
	{"synthetic-n50000-seed7", "PET", 0x1, rfidest.Estimate{N: 43017.322281847555, Seconds: 0.91327007999999998, Slots: 820, ReaderBits: 9348, Rounds: 164, Guarded: true, TagTransmissions: 8200000}},
	{"synthetic-n50000-seed7", "PET", 0xdecaf, rfidest.Estimate{N: 48832.598617176744, Seconds: 0.91327007999999998, Slots: 820, ReaderBits: 9348, Rounds: 164, Guarded: true, TagTransmissions: 8200000}},
	{"noisy-n10000-seed9", "BFCE", 0x1, rfidest.Estimate{N: 11776.060625050635, Seconds: 0.20299647999999998, Slots: 9408, ReaderBits: 544, Rounds: 1, Guarded: true, TagTransmissions: 558}},
	{"noisy-n10000-seed9", "BFCE", 0xdecaf, rfidest.Estimate{N: 11619.935787213981, Seconds: 0.19091407999999999, Slots: 9248, ReaderBits: 384, Rounds: 1, Guarded: true, TagTransmissions: 430}},
	{"noisy-n10000-seed9", "BFCE-multi", 0x1, rfidest.Estimate{N: 11923.353891593917, Seconds: 0.97873519999999992, Slots: 46560, ReaderBits: 2240, Rounds: 5, Guarded: true, TagTransmissions: 2676}},
	{"noisy-n10000-seed9", "BFCE-multi", 0xdecaf, rfidest.Estimate{N: 11687.82669857064, Seconds: 0.95457039999999993, Slots: 46240, ReaderBits: 1920, Rounds: 5, Guarded: true, TagTransmissions: 2532}},
	{"noisy-n10000-seed9", "ZOE", 0x1, rfidest.Estimate{N: 10295.04449691031, Seconds: 1.4067207999999998, Slots: 1075, ReaderBits: 24480, Rounds: 11, Guarded: true, TagTransmissions: 100990}},
	{"noisy-n10000-seed9", "ZOE", 0xdecaf, rfidest.Estimate{N: 9733.5835816280087, Seconds: 1.4067207999999998, Slots: 1075, ReaderBits: 24480, Rounds: 11, Guarded: true, TagTransmissions: 101765}},
	{"noisy-n10000-seed9", "ZOE-batched", 0x1, rfidest.Estimate{N: 8467.9703782352208, Seconds: 0.041439839999999999, Slots: 1075, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 100965}},
	{"noisy-n10000-seed9", "ZOE-batched", 0xdecaf, rfidest.Estimate{N: 8526.0397373632786, Seconds: 0.041439839999999999, Slots: 1075, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 101731}},
	{"noisy-n10000-seed9", "SRC", 0x1, rfidest.Estimate{N: 9575.0188338599892, Seconds: 0.09049088000000001, Slots: 3897, ReaderBits: 352, Rounds: 6, Guarded: true, TagTransmissions: 15754}},
	{"noisy-n10000-seed9", "SRC", 0xdecaf, rfidest.Estimate{N: 8905.140831909428, Seconds: 0.09049088000000001, Slots: 3897, ReaderBits: 352, Rounds: 6, Guarded: true, TagTransmissions: 21537}},
	{"noisy-n10000-seed9", "LOF", 0x1, rfidest.Estimate{N: 12165.501317546905, Seconds: 0.0241648, Slots: 320, ReaderBits: 320, Rounds: 10, Guarded: false, TagTransmissions: 100000}},
	{"noisy-n10000-seed9", "LOF", 0xdecaf, rfidest.Estimate{N: 6987.2456755902012, Seconds: 0.0241648, Slots: 320, ReaderBits: 320, Rounds: 10, Guarded: false, TagTransmissions: 100000}},
	{"noisy-n10000-seed9", "UPE", 0x1, rfidest.Estimate{N: 9914.8279770423414, Seconds: 0.58905552000000005, Slots: 3072, ReaderBits: 192, Rounds: 3, Guarded: true, TagTransmissions: 17438}},
	{"noisy-n10000-seed9", "UPE", 0xdecaf, rfidest.Estimate{N: 9569.6976095840801, Seconds: 0.58905552000000005, Slots: 3072, ReaderBits: 192, Rounds: 3, Guarded: true, TagTransmissions: 17547}},
	{"noisy-n10000-seed9", "EZB", 0x1, rfidest.Estimate{N: 9048.1723074350139, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 101273}},
	{"noisy-n10000-seed9", "EZB", 0xdecaf, rfidest.Estimate{N: 9862.2339179787268, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 102361}},
	{"noisy-n10000-seed9", "FNEB", 0x1, rfidest.Estimate{N: 66.514898098901867, Seconds: 79.982035359999998, Slots: 4209363, ReaderBits: 8992, Rounds: 281, Guarded: true, TagTransmissions: 100274}},
	{"noisy-n10000-seed9", "FNEB", 0xdecaf, rfidest.Estimate{N: 44.053414701857591, Seconds: 60.058443359999998, Slots: 3154088, ReaderBits: 8992, Rounds: 281, Guarded: true, TagTransmissions: 100275}},
	{"noisy-n10000-seed9", "MLE", 0x1, rfidest.Estimate{N: 8643.856431682816, Seconds: 0.036852000000000003, Slots: 832, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 100643}},
	{"noisy-n10000-seed9", "MLE", 0xdecaf, rfidest.Estimate{N: 8981.3707711053212, Seconds: 0.036852000000000003, Slots: 832, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 101196}},
	{"noisy-n10000-seed9", "ART", 0x1, rfidest.Estimate{N: 8808.278954089461, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 100557}},
	{"noisy-n10000-seed9", "ART", 0xdecaf, rfidest.Estimate{N: 9824.3093835164036, Seconds: 0.04651856, Slots: 1344, ReaderBits: 384, Rounds: 11, Guarded: true, TagTransmissions: 101059}},
	{"noisy-n10000-seed9", "PET", 0x1, rfidest.Estimate{N: 10093.694371648173, Seconds: 0.91327007999999998, Slots: 820, ReaderBits: 9348, Rounds: 164, Guarded: true, TagTransmissions: 1640000}},
	{"noisy-n10000-seed9", "PET", 0xdecaf, rfidest.Estimate{N: 8240.3149370767678, Seconds: 0.91327007999999998, Slots: 820, ReaderBits: 9348, Rounds: 164, Guarded: true, TagTransmissions: 1640000}},
	{"paperhash-n20000-seed42", "BFCE", 0x1, rfidest.Estimate{N: 19122.361638170161, Seconds: 0.19091407999999999, Slots: 9248, ReaderBits: 384, Rounds: 1, Guarded: true, TagTransmissions: 573}},
	{"paperhash-n20000-seed42", "BFCE", 0xdecaf, rfidest.Estimate{N: 19889.645386629712, Seconds: 0.19091407999999999, Slots: 9248, ReaderBits: 384, Rounds: 1, Guarded: true, TagTransmissions: 599}},
}
