package channel

import (
	"rfidest/internal/obs"
	"rfidest/internal/timing"
	"rfidest/internal/xrand"
)

// Reader is one estimation session: an engine (the tag population behind
// the air interface), a clock that prices every transmission, and a seed
// stream for the random seeds the reader broadcasts.
//
// StepRound drives the session through verbs that mirror the protocol's
// physical actions:
//
//	BroadcastParams       — reader transmits parameter/seed bits,
//	ExecuteFrame          — tags answer in a run of bit-slots the reader senses,
//	scanFirstBusy         — reader senses slots until the first reply,
//	executeFrameOccupancy — tags answer in Aloha slots the reader classifies,
//	listenSlots           — reader senses slots outside a frame.
//
// Every verb charges the clock per the timing model, so Cost() after a run
// is the protocol's overall execution time (the paper's Fig. 10 metric).
//
// Every verb also reports to the session's obs.Observer (obs.Nop unless
// SetObserver installed one), attributed to the protocol phase opened by
// StartPhase. Observation is passive: it never touches the clock, the
// seed stream or the engine, so instrumented and uninstrumented sessions
// are bit-identical.
type Reader struct {
	Engine  Engine
	Profile timing.Profile
	clock   timing.Clock
	seeds   xrand.Rand
	trace   func(TraceEvent)

	obs        obs.Observer // never nil; obs.Nop when uninstrumented
	phase      obs.Phase
	phaseStart timing.Cost // clock snapshot at StartPhase
}

// NewReader starts a session over engine. Seeds broadcast during the
// session derive deterministically from seed.
func NewReader(engine Engine, seed uint64) *Reader {
	return &Reader{
		Engine:  engine,
		Profile: timing.C1G2,
		seeds:   xrand.MakeStream(seed, 0x5eed),
		obs:     obs.Nop,
	}
}

// SetObserver installs o as the session's observer; nil restores the
// zero-cost default. Like SetTrace, observation does not affect costs or
// outcomes.
func (r *Reader) SetObserver(o obs.Observer) {
	if o == nil {
		o = obs.Nop
	}
	r.obs = o
}

// Observer returns the session's observer (obs.Nop when uninstrumented).
// Protocol code uses it for hooks the Reader cannot emit itself (probe
// rounds, session spans).
func (r *Reader) Observer() obs.Observer { return r.obs }

// StartPhase opens a named protocol-phase span: subsequent verbs are
// attributed to p until EndPhase. Phases do not nest; starting a new phase
// while one is open implicitly closes the open one.
func (r *Reader) StartPhase(p obs.Phase) {
	if r.phase != obs.PhaseRun {
		r.EndPhase()
	}
	r.phase = p
	r.phaseStart = r.clock.Cost()
	r.obs.PhaseStart(p)
}

// EndPhase closes the open phase span, reporting the communication cost
// the phase consumed (differenced from the session clock around the span).
// Outside a span it is a no-op.
func (r *Reader) EndPhase() {
	if r.phase == obs.PhaseRun {
		return
	}
	d := r.clock.Cost().Sub(r.phaseStart)
	r.obs.PhaseEnd(r.phase, obs.PhaseStats{
		Slots:      d.TagSlots,
		ReaderBits: d.ReaderBits,
		Seconds:    d.Seconds(r.Profile),
	})
	r.phase = obs.PhaseRun
}

// Phase returns the currently open protocol-phase span (PhaseRun when no
// span is open). The round driver uses it to open a new span only when a
// round's phase differs from the running one.
func (r *Reader) Phase() obs.Phase { return r.phase }

// NextSeed draws the next random seed the reader will broadcast.
func (r *Reader) NextSeed() uint64 { return r.seeds.Uint64() }

// Staller is implemented by engines that model reader-side stalls: extra
// air time (retransmission, resynchronization) consumed during an engine
// call that is not part of the frame's slot count. The Reader drains the
// pending cost after every engine call and charges it to the session
// clock, so stalls land in whatever phase span is open.
type Staller interface {
	// TakeStall returns the cost accrued since the last call and resets it.
	TakeStall() timing.Cost
}

// drainStall charges any stall cost the engine accrued during the last
// call. Engines that do not stall skip this with one failed assertion.
func (r *Reader) drainStall() {
	if st, ok := r.Engine.(Staller); ok {
		if c := st.TakeStall(); c != (timing.Cost{}) {
			r.clock.Charge(c)
		}
	}
}

// BroadcastParams charges the clock for a reader transmission of the given
// number of bits (command, frame size, seeds, persistence numerator, ...).
func (r *Reader) BroadcastParams(bits int) {
	r.clock.Broadcast(bits)
	r.obs.Broadcast(r.phase, bits)
	r.emit(TraceEvent{Kind: "broadcast", Bits: bits})
}

// ExecuteFrame runs one frame on the engine and charges the clock for the
// sensed bit-slots.
func (r *Reader) ExecuteFrame(req FrameRequest) BitVec {
	b := r.Engine.RunFrame(req)
	r.clock.Listen(b.Len())
	r.drainStall()
	busy := b.CountBusy()
	r.obs.Frame(r.phase, obs.FrameStats{W: req.W, Observed: b.Len(), Busy: busy})
	r.emit(TraceEvent{
		Kind: "frame", W: req.W, K: req.K, P: req.P,
		Observe: b.Len(), Busy: busy,
	})
	return b
}

// scanFirstBusy senses up to maxScan slots of the frame, stopping at the
// first busy one. It returns the index of that slot (or -1 if the whole
// scanned prefix was idle) and charges the clock for exactly the slots
// sensed.
func (r *Reader) scanFirstBusy(req FrameRequest, maxScan int) int {
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	pos := r.Engine.FirstResponse(req, maxScan)
	r.drainStall()
	if pos < 0 {
		r.clock.Listen(maxScan)
		r.obs.Listen(r.phase, maxScan)
	} else {
		r.clock.Listen(pos + 1)
		r.obs.Listen(r.phase, pos+1)
	}
	r.emit(TraceEvent{Kind: "scan", W: req.W, K: req.K, P: req.P, Busy: pos})
	return pos
}

// listenSlots charges the clock for sensing n tag bit-slots outside of a
// full frame execution (single-slot probes, as in PET's tree walk).
func (r *Reader) listenSlots(n int) {
	r.clock.Listen(n)
	r.obs.Listen(r.phase, n)
	r.emit(TraceEvent{Kind: "probe-slots", Bits: n})
}

// Cost returns the communication counters accumulated so far.
func (r *Reader) Cost() timing.Cost { return r.clock.Cost() }

// Seconds returns the air time accumulated so far under the session's
// profile.
func (r *Reader) Seconds() float64 { return r.clock.Seconds(r.Profile) }
