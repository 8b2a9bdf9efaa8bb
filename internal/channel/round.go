package channel

import (
	"context"
	"errors"
	"fmt"

	"rfidest/internal/obs"
)

// This file defines the round-structured execution model: the unit of
// protocol progress is one round — a reader broadcast followed by one
// frame execution, first-busy scan, silent frame or bare listen (see
// RoundKind) — and an estimation protocol is a Stepper, a resumable state
// machine that plans the next round and absorbs its observation.
//
// The split exists so exactly one loop drives every protocol. StepRound is
// that loop's body: phase transitions, parameter broadcasts, seed draws,
// frame executions and stall drains all happen here, in a fixed order, so
// per-round context cancellation, observability spans and scheduler
// interleaving compose with every protocol instead of being re-implemented
// inside each one. Protocol code never calls the session verbs directly;
// it describes rounds (RoundSpec) and folds observations (Absorb). The
// roundloop analyzer (internal/analysis) enforces that Plan/Absorb are
// only driven from here and from the interleaving scheduler.

// RoundKind selects how StepRound executes a round after its broadcast,
// and which RoundObs field carries the observation. Every kind goes
// through the Reader verb that charges it, and every engine call is
// followed by a stall drain, so no protocol can reach the air interface
// uncharged.
type RoundKind uint8

const (
	// FrameRound executes Frame and senses every observed slot
	// (RoundObs.Frame). It is the zero value.
	FrameRound RoundKind = iota
	// ScanRound senses Frame's slots only up to the first busy one, at
	// most W of them (RoundObs.First, -1 for an idle frame).
	ScanRound
	// SlotStateRound executes Frame at slot-state granularity, charging
	// AlohaSlotBits tag bits per observed slot (RoundObs.Occupancy). It
	// needs an OccupancyEngine; on any other engine StepRound fails with
	// ErrUnsupportedRound before the round's broadcast.
	SlotStateRound
	// SilentRound executes Frame on the engine without sensing it: no
	// slot is charged and no frame event fires, because the reader hears
	// nothing. The tags' pattern (RoundObs.Frame) is what later listen
	// rounds will probe. Stalls the engine call accrues are charged.
	SilentRound
	// ListenRound executes no frame and senses Listen slots. No seed is
	// drawn and the observation carries nothing.
	ListenRound
)

// AlohaSlotBits is the length of one framed-Aloha slot in a slot-state
// round: slots carry a short reply (10 bits), which is what lets the
// reader distinguish singletons from collisions but also makes each slot
// ~10× costlier than a bit-slot.
const AlohaSlotBits = 10

// RoundSpec describes the next protocol round a Stepper wants executed.
// The zero value is a bare frame in the unnamed PhaseRun span with a
// fresh driver-drawn seed and no parameter broadcast.
type RoundSpec struct {
	// Phase attributes the round's traffic to a protocol phase span.
	// Consecutive rounds with the same Phase share one span; a round with
	// a different Phase closes the open span and starts a new one.
	// PhaseRun means "outside any named phase" (no span is opened).
	Phase obs.Phase

	// Kind selects how the round executes (FrameRound by default).
	Kind RoundKind

	// ReuseSeed makes the driver execute Frame with Frame.Seed as given
	// instead of drawing a fresh one. Steppers that pin several rounds to
	// one seed (BFCE's probe) echo the seed they received in a previous
	// RoundObs — keeping the held seed inside the stepper, where
	// Snapshot/Restore can carry it.
	ReuseSeed bool

	// Report, when non-nil, is invoked on the session observer just
	// before the round's phase transition — BFCE uses it to emit the
	// probe-rounds hook between the probe span's end and the rough
	// span's start, exactly where the monolithic loop emitted it.
	Report func(o obs.Observer)

	// Broadcast is the number of reader parameter bits transmitted
	// before the frame (0 = no broadcast this round).
	Broadcast int

	// Frame is the frame geometry to execute (unused by ListenRound).
	// Frame.Seed is ignored unless ReuseSeed is set: by default the
	// driver draws a fresh seed from the session stream and reports it
	// back through RoundObs.Seed.
	Frame FrameRequest

	// Listen is the number of slots a ListenRound senses.
	Listen int
}

// RoundObs is the observation of one executed round, handed to Absorb.
// The Frame and Occupancy buffers belong to the round: they alias the
// engine's frame buffer, which the session's next round overwrites, so a
// Stepper that needs them past Absorb must copy them.
type RoundObs struct {
	// Frame is the bit vector the reader sensed (FrameRound), or the
	// pattern the tags answered with (SilentRound).
	Frame BitVec
	// Seed is the frame seed the driver used — freshly drawn unless the
	// spec set ReuseSeed. Steppers that need to reuse it echo it back via
	// RoundSpec.Frame.Seed/ReuseSeed.
	Seed uint64
	// First is a ScanRound's first busy slot, or -1 if the scan was idle.
	First int
	// Occupancy is a SlotStateRound's slot states.
	Occupancy Occupancy
}

// Stepper is a resumable protocol state machine. Plan describes the next
// round; Absorb folds the round's observation and reports whether the
// protocol is complete. Plan is never called after Absorb returns done.
//
// A Stepper never touches the session directly — it holds no Reader, no
// clock and no seed stream — so a driver can pause a run between any two
// rounds, and a scheduler can interleave many steppers' rounds over their
// own sessions without any cross-talk.
type Stepper interface {
	Plan() RoundSpec
	Absorb(RoundObs) (done bool, err error)
}

// LegacyRunner was implemented by steppers whose single round executed an
// entire run-to-completion protocol. Nothing implements it any more:
// every protocol steps natively through StepRound.
//
// Deprecated: no round dispatches to RunLegacy. The type remains only
// until the benchmark that names it is revised.
type LegacyRunner interface {
	RunLegacy(r *Reader) (done bool, err error)
}

// StepRound executes one round of s over the session r: context check,
// the check that the channel can execute the round (see
// ErrUnsupportedRound), pending report hook, phase transition, parameter
// broadcast, seed resolution, the round's execution (see RoundKind),
// Absorb. It is the single place protocol rounds happen — Drive, the root
// run loop and the interleaving scheduler all funnel through it. A nil
// ctx skips the cancellation check.
func StepRound(ctx context.Context, r *Reader, s Stepper) (done bool, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	spec := s.Plan()
	if err := checkRound(r.Engine, spec); err != nil {
		return false, err
	}
	if spec.Report != nil {
		spec.Report(r.Observer())
	}
	if spec.Phase != r.Phase() {
		if spec.Phase == obs.PhaseRun {
			r.EndPhase()
		} else {
			r.StartPhase(spec.Phase)
		}
	}
	if spec.Broadcast > 0 {
		r.BroadcastParams(spec.Broadcast)
	}
	req := spec.Frame
	if !spec.ReuseSeed && spec.Kind != ListenRound {
		req.Seed = r.NextSeed()
	}
	o := RoundObs{Seed: req.Seed}
	switch spec.Kind {
	case ListenRound:
		r.listenSlots(spec.Listen)
	case ScanRound:
		o.First = r.scanFirstBusy(req, req.W)
	case SlotStateRound:
		o.Occupancy = r.executeFrameOccupancy(req, AlohaSlotBits)
	case SilentRound:
		o.Frame = r.Engine.RunFrame(req)
		r.drainStall()
	default:
		o.Frame = r.ExecuteFrame(req)
	}
	return s.Absorb(o) //lint:allow obspair the span deliberately outlives the round; Drive closes it on every exit
}

// ErrUnsupportedRound is wrapped by StepRound's refusal of a round the
// session's channel cannot execute. The refusal comes before the round's
// broadcast, so the refused round costs the session nothing.
var ErrUnsupportedRound = errors.New("channel: unsupported round")

// FrameChecker is implemented by engines that cannot execute every frame
// geometry, and by the wrappers around them, which ask the engines they
// wrap — so StepRound's check sees through any stack of wrappers.
type FrameChecker interface {
	// CheckFrame returns an error wrapping ErrUnsupportedRound if the
	// engine cannot execute req.
	CheckFrame(req FrameRequest) error
}

// CheckFrame reports whether eng can execute req: engines that are not
// FrameCheckers execute every valid geometry.
func CheckFrame(eng Engine, req FrameRequest) error {
	if c, ok := eng.(FrameChecker); ok {
		return c.CheckFrame(req)
	}
	return nil
}

// checkRound refuses a round the engine cannot execute: a slot-state
// round on an engine without slot states, or a frame the engine's tags
// cannot address.
func checkRound(eng Engine, spec RoundSpec) error {
	switch spec.Kind {
	case ListenRound:
		return nil
	case SlotStateRound:
		if _, ok := eng.(OccupancyEngine); !ok {
			return fmt.Errorf("%w: a slot-state round needs slot states, which a %T channel does not model", ErrUnsupportedRound, eng)
		}
	}
	return CheckFrame(eng, spec.Frame)
}

// Drive runs s over r to completion, one StepRound at a time, closing any
// open phase span on the way out (normal completion, protocol error or
// context cancellation alike, so observability accounting stays balanced).
// A nil ctx disables cancellation checks; otherwise the context is checked
// before every round — the round in flight always completes, so a
// cancelled run leaves the session's seed stream at a round boundary.
func Drive(ctx context.Context, r *Reader, s Stepper) error {
	if r == nil {
		return errors.New("channel: nil session")
	}
	for {
		done, err := StepRound(ctx, r, s)
		if err != nil {
			r.EndPhase()
			return err
		}
		if done {
			r.EndPhase()
			return nil
		}
	}
}
