package core

import (
	"fmt"
	"math"

	"rfidest/internal/channel"
)

// Monitor performs repeated BFCE estimations of a (possibly drifting)
// population, warm-starting each round from the previous one. This is the
// incremental-monitoring mode the paper's applications imply (inventory
// surveillance runs the estimator continuously, not once):
//
//   - the probe phase starts from the persistence numerator the previous
//     round settled on, instead of the cold 8/1024, so a stable population
//     re-validates p_s in a single 32-slot window;
//   - the optimal-p search can reuse the previous round's estimate as the
//     rough input when the population is known to drift slowly, skipping
//     the 1024-slot rough frame entirely (FastRounds).
//
// Each call still ends with the full 8192-slot accurate frame, so the
// (ε, δ) guarantee of a round holds whenever its rough input undershoots
// the true cardinality — the same condition as single-shot BFCE, with the
// previous round's (1−ε)-scaled estimate playing the role of c·n̂_r.
//
// A Monitor is intentionally not safe for concurrent use: the Snap carried
// between rounds exists because round i+1's inputs are round i's outputs.
// The contract is one goroutine per Monitor; shard a deployment across
// several Monitors if rounds must overlap.
type Monitor struct {
	est  *Estimator
	snap Snap

	// FastRounds is how many consecutive rounds may skip the rough phase
	// and derive the lower bound from the previous estimate before a full
	// rough phase is forced again (guards against slow compounding drift).
	// Zero disables skipping: every round runs the full protocol.
	FastRounds int
}

// Snap is the warm-start state one monitoring round hands the next: the
// whole of what a Monitor carries. Snapshot/Restore move it across
// Monitors (or processes), so a monitoring loop can be checkpointed and
// resumed without losing its warm state.
type Snap struct {
	// Pn is the last valid probe persistence numerator (0 = cold: the
	// next round probes from the configured InitialPn).
	Pn int
	// N is the last round's accepted estimate (0 = cold: the next round
	// cannot run fast and executes the full protocol).
	N float64
	// Rounds is how many rounds completed; it drives the FastRounds
	// cadence (round r is full when r ≡ 0 mod FastRounds+1).
	Rounds int
}

// NewMonitor returns a Monitor running the given estimator configuration.
func NewMonitor(cfg Config) (*Monitor, error) {
	est, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Monitor{est: est}, nil
}

// Rounds returns how many estimation rounds the monitor has completed.
func (m *Monitor) Rounds() int { return m.snap.Rounds }

// Snapshot returns the monitor's warm-start state.
func (m *Monitor) Snapshot() Snap { return m.snap }

// Restore overwrites the monitor's warm-start state with a snapshot —
// typically one taken from another Monitor (or an earlier process) over
// the same deployment.
func (m *Monitor) Restore(s Snap) error {
	if s.Pn < 0 || s.Pn >= PDenom {
		return fmt.Errorf("core: snapshot Pn %d outside [0, %d)", s.Pn, PDenom)
	}
	// Positively phrased so NaN fails it too. An infinite N would hand the
	// next fast round an infinite lower bound, for which no p_o is feasible.
	if !(s.N >= 0 && s.N <= math.MaxFloat64) {
		return fmt.Errorf("core: snapshot N %v must be finite and >= 0", s.N)
	}
	if s.Rounds < 0 {
		return fmt.Errorf("core: negative snapshot round count %d", s.Rounds)
	}
	m.snap = s
	return nil
}

// Stepper builds the round state machine for the next monitoring round
// from the current snapshot: warm probe start when Pn is set, and a fast
// accurate-only round when the FastRounds cadence and a warm estimate
// allow. The round changes nothing until its result is handed to Absorb,
// so a round that fails or is cancelled leaves the warm state untouched.
func (m *Monitor) Stepper() *Stepper {
	cfg := m.est.cfg
	if m.snap.Pn > 0 {
		cfg.InitialPn = m.snap.Pn
	}
	if m.FastRounds > 0 && m.snap.N > 0 && m.snap.Rounds%(m.FastRounds+1) != 0 {
		return newFastStepper(cfg, m.snap.Pn, m.snap.N)
	}
	return (&Estimator{cfg: cfg}).Stepper()
}

// Absorb commits a completed round's result to the warm-start state. The
// saturated-round guard is part of the snapshot contract, not of any
// particular execution loop: a saturated round produced a clamped
// estimate (the observation was all-idle or all-busy), which is an
// upper/lower resolution bound, not a measurement. Warm-starting the next
// round from it would feed a fabricated lower bound into the optimal-p
// search — after a population crash, every subsequent fast round would
// keep probing at the stale rate and keep saturating. So a saturated
// round clears the warm fields and the next round runs fully cold.
func (m *Monitor) Absorb(res Result) {
	m.snap.Rounds++
	if res.Saturated {
		m.snap.Pn = 0
		m.snap.N = 0
		return
	}
	if res.PsNum > 0 {
		m.snap.Pn = res.PsNum
	}
	m.snap.N = res.Estimate
}

// Estimate runs the next monitoring round over the session.
func (m *Monitor) Estimate(r *channel.Reader) (Result, error) {
	res, err := driveStepper(r, m.Stepper())
	if err != nil {
		return res, err
	}
	m.Absorb(res)
	return res, nil
}
