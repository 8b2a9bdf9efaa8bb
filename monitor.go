package rfidest

import (
	"context"
	"errors"
	"fmt"

	"rfidest/internal/channel"
	"rfidest/internal/core"
	"rfidest/internal/estimators"
)

// Monitor tracks a (possibly drifting) deployment with repeated BFCE
// rounds, warm-starting each round from the previous one: the probe phase
// resumes from the last valid persistence numerator, and — when FastRounds
// is enabled — the rough phase is skipped entirely on most rounds, with
// the previous estimate standing in as the lower-bound input. A fast round
// costs only the 8192-slot accurate frame (~0.16 s of air time).
//
// Unlike System, a Monitor is stateful by design — each round reads and
// rewrites the warm-start state of the previous one — so it is
// single-goroutine: rounds have a temporal order that concurrency would
// destroy, not just a data race. Run one Monitor per monitoring loop;
// different Monitors may share one System.
type Monitor struct {
	inner *core.Monitor
	round *core.Stepper // the round Run is executing
}

// NewMonitor builds a monitor to the (ε, δ) requirement. fastRounds is how
// many consecutive rounds may skip the rough phase before a full round is
// forced (0 = every round runs the full protocol).
func NewMonitor(epsilon, delta float64, fastRounds int) (*Monitor, error) {
	if fastRounds < 0 {
		return nil, errors.New("rfidest: negative fastRounds")
	}
	if err := validateAccuracy(epsilon, delta); err != nil {
		return nil, err
	}
	m, err := core.NewMonitor(core.Config{Epsilon: epsilon, Delta: delta})
	if err != nil {
		return nil, err
	}
	m.FastRounds = fastRounds
	return &Monitor{inner: m}, nil
}

// Run executes the next monitoring round against sys (typically a fresh
// System per round, reflecting the deployment's current population). The
// round is the monitor's warm or fast BFCE machine stepped by the same
// loop as (*System).Run: the context is checked before every protocol
// round (a nil ctx disables cancellation), WithSeedSalt addresses the
// round's session explicitly, WithTimeout bounds the round with a deadline,
// and WithObserver attaches session spans, phase spans and metrics. A
// cancelled round returns ctx's error and does not advance the monitor's
// warm-start state.
//
// The monitor's protocol and accuracy are fixed at NewMonitor, so
// WithEstimator and WithAccuracy are rejected; so is WithRetry — a
// saturated monitoring round already self-corrects by clearing the warm
// state (the next round runs cold), and re-running it inside one round
// would double-bill the deployment's air time.
func (m *Monitor) Run(ctx context.Context, sys *System, opts ...Option) (Estimate, error) {
	o := newRunOptions(opts)
	switch {
	case o.hasEstimator:
		return Estimate{}, errors.New("rfidest: Monitor runs BFCE only; WithEstimator is not a monitor option")
	case o.hasAccuracy:
		return Estimate{}, errors.New("rfidest: a Monitor's accuracy is fixed at NewMonitor; WithAccuracy is not a monitor option")
	case o.hasRetry:
		return Estimate{}, errors.New("rfidest: WithRetry is not a monitor option; a saturated round already restarts the next round cold")
	case sys == nil:
		return Estimate{}, errors.New("rfidest: nil system")
	}
	est, err := sys.run(ctx, o, m)
	round := m.round
	m.round = nil
	if err != nil {
		return Estimate{}, err
	}
	m.inner.Absorb(round.Result())
	return est, nil
}

// nextStepper makes the monitor Run's stepper source: the monitor's warm
// or fast round, kept so Run can commit its result once the round is done.
func (m *Monitor) nextStepper() (estimators.Stepper, error) {
	m.round = m.inner.Stepper()
	return estimators.BFCEStepper(m.round), nil
}

// Rounds returns how many rounds the monitor has completed.
func (m *Monitor) Rounds() int { return m.inner.Rounds() }

// MonitorState is the warm-start state one monitoring round hands the
// next: the last valid probe numerator, the last accepted estimate and
// the completed-round count. Snapshot/Restore move it across Monitors (or
// processes), so a monitoring loop can be checkpointed and resumed with
// its warm state intact.
type MonitorState struct {
	// Pn is the last valid probe persistence numerator (0 = cold).
	Pn int
	// N is the last round's accepted estimate (0 = cold). A saturated
	// round clears it — see the snapshot contract in internal/core.
	N float64
	// Rounds is how many rounds completed; it drives the FastRounds
	// cadence.
	Rounds int
}

// Snapshot returns the monitor's warm-start state.
func (m *Monitor) Snapshot() MonitorState {
	s := m.inner.Snapshot()
	return MonitorState{Pn: s.Pn, N: s.N, Rounds: s.Rounds}
}

// Restore overwrites the monitor's warm-start state with a snapshot —
// typically one taken from another Monitor (or an earlier process) over
// the same deployment. The state is validated against the monitor's
// configuration.
func (m *Monitor) Restore(s MonitorState) error {
	return m.inner.Restore(core.Snap{Pn: s.Pn, N: s.N, Rounds: s.Rounds})
}

// Merge returns a System whose reader hears the union of the given
// tag-level systems — the paper's multi-reader deployment (§III-A), where
// synchronized readers are "logically considered as one reader". unionN is
// the ground-truth union cardinality (the caller knows the overlap; the
// merged reader does not need to). Overlapping coverage is handled exactly:
// a tag heard by several readers responds in the same slots through each.
func Merge(unionN int, systems ...*System) (*System, error) {
	if len(systems) == 0 {
		return nil, errors.New("rfidest: Merge needs at least one system")
	}
	if unionN < 0 {
		return nil, errors.New("rfidest: negative union cardinality")
	}
	maxN, sumN := 0, 0
	for i, sub := range systems {
		if sub == nil {
			return nil, fmt.Errorf("rfidest: system %d is nil", i)
		}
		if sub.synthetic {
			return nil, fmt.Errorf("rfidest: system %d is synthetic; multi-reader merging needs tag-level systems", i)
		}
		// A merged reader hashes every tag through one hash family; mixing
		// modes would silently reinterpret half the population under the
		// wrong family (the old code took systems[0].hashMode and dropped
		// the rest on the floor).
		if sub.hashMode != systems[0].hashMode {
			return nil, fmt.Errorf("rfidest: mixed hash modes: system %d uses mode %d, system 0 uses mode %d",
				i, sub.hashMode, systems[0].hashMode)
		}
		if sub.n > maxN {
			maxN = sub.n
		}
		sumN += sub.n
	}
	// The union of sets of sizes n_1..n_k has cardinality in
	// [max(n_i), sum(n_i)]; a unionN outside that range cannot describe any
	// overlap of these populations and would corrupt the merged engine's
	// ground truth.
	if unionN < maxN || unionN > sumN {
		return nil, fmt.Errorf("rfidest: union cardinality %d outside feasible range [%d, %d]", unionN, maxN, sumN)
	}
	merged := &System{
		n:        unionN,
		seed:     systems[0].seed ^ 0xd0c5,
		hashMode: systems[0].hashMode,
		merged:   systems,
	}
	return merged, nil
}

// mergedEngine builds the union engine over the sub-systems' populations.
func (s *System) mergedEngine() channel.Engine {
	engines := make([]channel.Engine, len(s.merged))
	for i, sub := range s.merged {
		engines[i] = channel.NewTagEngine(sub.pop, sub.hashMode)
	}
	return channel.NewMergedEngine(s.n, engines...)
}
