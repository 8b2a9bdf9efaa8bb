// Package obs is the repository's observability layer: span hooks and
// metric instruments for watching fleets of estimations execute, built on
// the standard library alone.
//
// The paper's whole claim is a cost profile — <0.19 s of C1G2 air time, a
// fixed 1024+8192 slot budget, a bounded probe phase — and every layer of
// the simulator computes exactly those quantities already. This package
// stops throwing them away: the channel reports every broadcast bit and
// sensed slot, BFCE marks its probe/rough/accurate phases, the estimator
// registry accounts rounds and slots per protocol, and the fleet runner
// aggregates across jobs, all through one small Observer interface.
//
// Two implementations ship here. Nop is the zero-allocation default: the
// uninstrumented path costs a handful of empty interface calls per frame
// and allocates nothing, so estimation benchmarks stay at parity. Registry
// is the metrics sink: lock-cheap atomic counters and histograms with JSON
// and expvar-style text snapshot export (see registry.go).
//
// Observation is strictly passive. Observers never touch seed streams,
// clocks or channel state, so an estimation run is bit-identical with and
// without instrumentation — the determinism tests pin exactly that.
//
// Policy: all metric registration and export in this module flows through
// this package. Direct use of expvar or runtime/metrics elsewhere is
// forbidden by the metricreg analyzer (internal/analysis), so there is one
// snapshot of record rather than a scatter of process-global registries.
package obs

// Phase identifies a protocol phase of an estimation session. BFCE's three
// phases (§IV of the paper) are first-class; activity outside any named
// phase — every non-BFCE protocol, and BFCE's inter-phase bookkeeping — is
// attributed to PhaseRun.
type Phase uint8

const (
	// PhaseRun is protocol activity outside any named phase.
	PhaseRun Phase = iota
	// PhaseProbe is BFCE's persistence-probe phase (§IV-C).
	PhaseProbe
	// PhaseRough is BFCE's 1024-slot rough estimation phase (§IV-C).
	PhaseRough
	// PhaseAccurate is BFCE's full-frame accurate phase (§IV-D).
	PhaseAccurate

	// NumPhases bounds the Phase values; useful for per-phase arrays.
	NumPhases
)

// String names the phase as exported in snapshots.
func (p Phase) String() string {
	switch p {
	case PhaseRun:
		return "run"
	case PhaseProbe:
		return "probe"
	case PhaseRough:
		return "rough"
	case PhaseAccurate:
		return "accurate"
	default:
		return "invalid"
	}
}

// FrameStats describes one executed frame, as observed by the reader.
type FrameStats struct {
	// W is the announced frame size; Observed the slots actually sensed.
	W, Observed int
	// Busy is the number of busy slots among the observed ones.
	Busy int
}

// PhaseStats summarizes one completed phase span: the communication the
// phase consumed, differenced from the session clock around the span.
type PhaseStats struct {
	// Slots is the number of tag bit-slots sensed during the phase.
	Slots int
	// ReaderBits is the number of bits the reader broadcast during it.
	ReaderBits int
	// Seconds is the phase's air time under the session profile.
	Seconds float64
}

// SessionStats summarizes one completed estimation session.
type SessionStats struct {
	// Estimator is the protocol's registry name ("BFCE", "ZOE", ...).
	Estimator string
	// Estimate is the protocol's n̂ (0 when Err).
	Estimate float64
	// Rounds and Slots are the protocol's own round/slot accounting.
	Rounds, Slots int
	// ReaderBits is the reader broadcast total of the run.
	ReaderBits int
	// Seconds is the run's air time under the session profile.
	Seconds float64
	// TagTransmissions is the tag-side energy proxy, or -1 when the
	// session's engine does not meter energy.
	TagTransmissions int
	// Guarded reports whether the (ε, δ) guarantee machinery was in effect.
	Guarded bool
	// Err reports that the run failed; cost fields are zero in that case.
	Err bool
}

// FaultStats counts the fault events a channel injector applied during one
// estimation session (see internal/faults). All counters are cumulative
// over the reported window.
type FaultStats struct {
	// Frames is the number of engine calls the injector processed.
	Frames int
	// BurstFlips is the number of slots flipped by the burst-noise model.
	BurstFlips int
	// Erasures is the number of busy slots erased to idle.
	Erasures int
	// Truncations is the number of frames whose observation tail was lost.
	Truncations int
	// Stalls is the number of reader stalls injected; StallSlots is the
	// total extra slot-time they charged to the session clock.
	Stalls, StallSlots int
}

// Total returns the number of fault events (excluding Frames and the
// derived StallSlots), the scalar the faults-per-session histogram bins.
func (s FaultStats) Total() int {
	return s.BurstFlips + s.Erasures + s.Truncations + s.Stalls
}

// Observer receives span hooks from the estimation path. Implementations
// must be safe for concurrent use (many sessions report into one observer)
// and must be passive: estimates are bit-identical with any observer
// attached.
//
// Hook arguments are plain values — no per-call allocation is required of
// either side, which is what keeps the Nop default free.
type Observer interface {
	// SessionOpen fires when an estimation session starts running the named
	// protocol.
	SessionOpen(estimator string)
	// SessionClose fires when the session's protocol run completes.
	SessionClose(s SessionStats)
	// PhaseStart and PhaseEnd bracket a named protocol phase.
	PhaseStart(p Phase)
	PhaseEnd(p Phase, s PhaseStats)
	// Frame fires for every executed frame, attributed to the open phase.
	Frame(p Phase, f FrameStats)
	// Broadcast fires for every reader parameter/seed transmission.
	Broadcast(p Phase, bits int)
	// Listen fires for slots sensed outside a full frame execution
	// (first-busy scans, single-slot probes).
	Listen(p Phase, slots int)
	// ProbeRounds reports how many probe adjustments a BFCE run performed
	// before settling on a valid persistence probability.
	ProbeRounds(rounds int)
	// EstimateError reports the relative error |n̂−n|/n of a completed run
	// when the harness knows the ground truth n.
	EstimateError(relErr float64)
	// Faults reports the fault events a session's channel injector applied,
	// fired once when the session's run completes (zero-valued stats are
	// not reported).
	Faults(s FaultStats)
	// Retry fires when a run re-executes after a degenerate attempt;
	// attempt counts the re-executions of that run, starting at 1.
	Retry(estimator string, attempt int)
	// Degraded fires when a run (or a fleet job) exhausts its retry budget
	// and reports a degraded result instead of failing.
	Degraded(estimator string)
}

// nop is the zero-cost Observer: every method is an empty, allocation-free
// no-op the compiler can see through.
type nop struct{}

func (nop) SessionOpen(string)         {}
func (nop) SessionClose(SessionStats)  {}
func (nop) PhaseStart(Phase)           {}
func (nop) PhaseEnd(Phase, PhaseStats) {}
func (nop) Frame(Phase, FrameStats)    {}
func (nop) Broadcast(Phase, int)       {}
func (nop) Listen(Phase, int)          {}
func (nop) ProbeRounds(int)            {}
func (nop) EstimateError(float64)      {}
func (nop) Faults(FaultStats)          {}
func (nop) Retry(string, int)          {}
func (nop) Degraded(string)            {}

// Nop is the default observer: it does nothing and allocates nothing, so
// the uninstrumented estimation path stays at benchmark parity.
var Nop Observer = nop{}

// Multi tees hooks to several observers in order. Nil and Nop entries are
// dropped; with zero live entries it returns Nop, with one it returns that
// observer unwrapped. The fleet runner uses it to combine a batch-wide
// registry with per-job observers.
func Multi(observers ...Observer) Observer {
	live := make([]Observer, 0, len(observers))
	for _, o := range observers {
		if o != nil && o != Nop {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) SessionOpen(name string) {
	for _, o := range m {
		o.SessionOpen(name)
	}
}

func (m multi) SessionClose(s SessionStats) {
	for _, o := range m {
		o.SessionClose(s)
	}
}

func (m multi) PhaseStart(p Phase) {
	for _, o := range m {
		o.PhaseStart(p)
	}
}

func (m multi) PhaseEnd(p Phase, s PhaseStats) {
	for _, o := range m {
		o.PhaseEnd(p, s)
	}
}

func (m multi) Frame(p Phase, f FrameStats) {
	for _, o := range m {
		o.Frame(p, f)
	}
}

func (m multi) Broadcast(p Phase, bits int) {
	for _, o := range m {
		o.Broadcast(p, bits)
	}
}

func (m multi) Listen(p Phase, slots int) {
	for _, o := range m {
		o.Listen(p, slots)
	}
}

func (m multi) ProbeRounds(rounds int) {
	for _, o := range m {
		o.ProbeRounds(rounds)
	}
}

func (m multi) EstimateError(relErr float64) {
	for _, o := range m {
		o.EstimateError(relErr)
	}
}

func (m multi) Faults(s FaultStats) {
	for _, o := range m {
		o.Faults(s)
	}
}

func (m multi) Retry(estimator string, attempt int) {
	for _, o := range m {
		o.Retry(estimator, attempt)
	}
}

func (m multi) Degraded(estimator string) {
	for _, o := range m {
		o.Degraded(estimator)
	}
}
