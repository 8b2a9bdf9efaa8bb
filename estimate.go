package rfidest

import (
	"rfidest/internal/core"
	"rfidest/internal/estimators"
	"rfidest/internal/timing"
)

// Estimate is the outcome of one estimation run over a System.
//
// The json tags below are the frozen wire schema of the serving layer
// (lowerCamel field names; omitempty only where the zero value carries no
// information). TestEstimateWireFormat pins the rendering — changing a tag
// is a wire-format break, not a refactor.
type Estimate struct {
	// N is the estimated cardinality n̂.
	N float64 `json:"n"`
	// Seconds is the protocol's air time under EPCglobal C1G2 — the
	// paper's "overall execution time" metric.
	Seconds float64 `json:"seconds"`
	// Slots is the number of tag→reader slots the protocol consumed.
	Slots int `json:"slots"`
	// ReaderBits is the number of bits the reader broadcast (parameters
	// and seeds) — the cost component the paper shows dominates ZOE.
	ReaderBits int `json:"readerBits"`
	// Rounds is the number of protocol rounds/frames executed.
	Rounds int `json:"rounds"`
	// Guarded reports whether the protocol's (ε, δ) guarantee machinery
	// was in effect (for BFCE: Theorem 3 had a feasible persistence
	// probability at the rough lower bound). False is meaningful (LOF
	// never guards), so no omitempty.
	Guarded bool `json:"guarded"`
	// TagTransmissions is the total number of tag backscatter
	// transmissions the protocol triggered — the tag-side energy proxy
	// (each transmission drains an active tag's battery). -1 if the
	// session's engine does not meter energy (so zero is meaningful and
	// the field is never omitted).
	TagTransmissions int `json:"tagTransmissions"`
	// Saturated reports that the final protocol round observed a
	// degenerate all-idle or all-busy vector and N is a clamp artifact
	// rather than a measurement (BFCE only; other protocols leave it
	// false). Under WithRetry a true value means every attempt saturated —
	// the degraded-result contract: the estimate is still returned, but N
	// is only a resolution bound on the true cardinality.
	Saturated bool `json:"saturated,omitempty"`
	// Retries is how many times the run was re-executed after a saturated
	// attempt (see WithRetry). Cost fields aggregate over all attempts; N,
	// Guarded and Saturated describe the last one.
	Retries int `json:"retries,omitempty"`
}

func fromResult(r estimators.Result) Estimate {
	return Estimate{
		N:          r.Estimate,
		Seconds:    r.Seconds,
		Slots:      r.Slots,
		ReaderBits: r.Cost.ReaderBits,
		Rounds:     r.Rounds,
		Guarded:    r.Guarded,
		Saturated:  r.Saturated,
	}
}

// Estimators returns the names accepted by WithEstimator, sorted. The set
// is defined once, in the estimators package registry.
func Estimators() []string {
	return estimators.Names()
}

// BFCEDetail runs BFCE and returns the protocol's internal diagnostics
// alongside the estimate: the rough estimate, the lower bound, the chosen
// persistence numerators and the probe behaviour.
type BFCEDetail struct {
	Estimate    Estimate `json:"estimate"`
	Rough       float64  `json:"rough"`               // n̂_r from the 1024-slot rough phase
	LowerBound  float64  `json:"lowerBound"`          // n̂_low = c·n̂_r
	ProbePn     int      `json:"probePn"`             // persistence numerator the probe settled on (p_s·1024)
	OptimalPn   int      `json:"optimalPn"`           // numerator of the accurate phase (p_o·1024)
	ProbeRounds int      `json:"probeRounds"`         // probe adjustments before p_s was valid
	Feasible    bool     `json:"feasible"`            // Theorem 3 had a feasible p_o at n̂_low
	Saturated   bool     `json:"saturated,omitempty"` // a phase saw a degenerate all-0s/all-1s vector
}

// ConstantTimeBudget returns the paper's closed-form bound on BFCE's air
// time under EPCglobal C1G2 — "less than 0.19 s" (§IV-E.1) — in seconds.
func ConstantTimeBudget() float64 {
	return timing.BFCEBudgetSeconds(timing.C1G2)
}

// MaxCardinality returns the largest cardinality the paper's w = 8192
// configuration can express (γ_max·w > 19 million, §IV-B).
func MaxCardinality() float64 {
	return core.MaxCardinality(3, 8192, 1024)
}
