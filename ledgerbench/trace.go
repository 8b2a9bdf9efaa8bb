package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"rfidest"
	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// wall reads the wall clock. Pricing work in wall time is what the
// benchmark is for, so this is the one place the package samples it.
func wall() time.Time {
	return time.Now() //lint:allow detrand the benchmark measures wall-clock cost; no reading feeds a simulation
}

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanOp      spanKind = iota
	spanSession          // System.StartRun through RunSession.Result
	spanStep             // one RunSession.Step
	spanReplay           // the re-drive of the op through the timing wrappers
	spanRound            // one channel.StepRound of the re-drive
	spanPlan             // Stepper.Plan
	spanAbsorb           // Stepper.Absorb
	spanLegacy           // LegacyRunner.RunLegacy: a whole legacy-adapted protocol
	spanFrame            // one engine call: RunFrame, FirstResponse or RunFrameOccupancy
	spanHTTP             // one internal/client call, retries included
	spanInproc           // the in-process replay of a served op (System.Run or Monitor.Run)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "rfidest.session", "rfidest.step", "replay", "channel.round", "estimators.plan",
	"estimators.absorb", "estimators.legacy", "channel.frame", "client.call", "inproc.replay",
}

// span is one recorded interval. All spans of one op share Op; times are
// nanoseconds since the run's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	kind  spanKind
	id    uint64
	start int64
	child int64 // ns of this span covered by its children
}

// reservoirSize bounds the per-kind duration samples behind the medians.
const reservoirSize = 1 << 15

// reservoir is a uniform sample of a stream of durations.
type reservoir struct {
	vals []float64
	seen int64
}

func (r *reservoir) add(v float64, rng *xrand.Rand) {
	r.seen++
	if len(r.vals) < reservoirSize {
		r.vals = append(r.vals, v)
		return
	}
	if j := rng.Uint64n(uint64(r.seen)); j < reservoirSize {
		r.vals[j] = v
	}
}

// kindStats aggregates every span of one kind, kept in the span log or not.
type kindStats struct {
	count int64
	self  int64 // ns not covered by child spans
	selfs reservoir
}

// spanKeep is how many spans the log keeps per worker.
const spanKeep = 1 << 16

// tracer records one worker's spans. Each worker owns one, so it needs no
// locking. The span log keeps whole ops until it holds spanKeep spans; the
// aggregates cover every span.
type tracer struct {
	epoch   time.Time
	worker  uint64
	op      uint64
	logOp   bool // the current op's spans go to the log
	ids     uint64
	stack   []openSpan
	spans   []span
	dropped int64
	kinds   [numSpanKinds]kindStats
	slots   int64 // slots sensed by traced engine calls
	rng     *xrand.Rand

	readOverhead  reservoir // HTTP span minus in-process replay, per read (ms)
	writeOverhead reservoir // the same per write (ms)
}

func newTracer(epoch time.Time, seed uint64, w int) *tracer {
	return &tracer{
		epoch:  epoch,
		worker: uint64(w),
		rng:    xrand.NewStream(seed, tagReservoir, uint64(w)),
		stack:  make([]openSpan, 0, 8),
	}
}

func (t *tracer) now() int64 { return int64(wall().Sub(t.epoch)) }

// beginOp starts the root span of worker-local op i.
func (t *tracer) beginOp(i int) {
	t.op = t.worker<<48 | uint64(i)
	t.logOp = len(t.spans) < spanKeep
	t.begin(spanOp)
}

func (t *tracer) begin(k spanKind) {
	t.ids++
	t.stack = append(t.stack, openSpan{kind: k, id: t.worker<<48 | t.ids, start: t.now()})
}

// end closes the innermost open span and returns its duration in ns.
func (t *tracer) end() int64 {
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	stop := t.now()
	dur := stop - top.start
	var parent uint64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	ks := &t.kinds[top.kind]
	ks.count++
	ks.self += dur - top.child
	ks.selfs.add(float64(dur-top.child), t.rng)
	if t.logOp {
		t.spans = append(t.spans, span{ID: top.id, Parent: parent, Op: t.op, Name: spanNames[top.kind], Start: top.start, End: stop})
	} else {
		t.dropped++
	}
	return dur
}

// tracedEngine wraps a session's engine so every engine call becomes a
// channel.frame span (tr non-nil) or a recorded call (calls non-nil). It
// forwards the optional engine interfaces the reader and the protocols
// look for — occupancy frames (UPE) and the transmission meter — so a
// re-driven session is bit-identical to the one the System opens.
type tracedEngine struct {
	inner channel.Engine
	tr    *tracer
	calls *[]engineCall
}

// engineCall is one recorded engine call, replayed in isolation to price
// the frame engine's allocations.
type engineCall struct {
	kind    uint8 // 0 RunFrame, 1 FirstResponse, 2 RunFrameOccupancy
	req     channel.FrameRequest
	maxScan int
}

func (e *tracedEngine) record(c engineCall) {
	if e.calls != nil {
		*e.calls = append(*e.calls, c)
	}
}

func (e *tracedEngine) RunFrame(req channel.FrameRequest) channel.BitVec {
	e.record(engineCall{kind: 0, req: req})
	if e.tr == nil {
		return e.inner.RunFrame(req)
	}
	e.tr.begin(spanFrame)
	v := e.inner.RunFrame(req)
	e.tr.end()
	e.tr.slots += int64(v.Len())
	return v
}

func (e *tracedEngine) FirstResponse(req channel.FrameRequest, maxScan int) int {
	e.record(engineCall{kind: 1, req: req, maxScan: maxScan})
	if e.tr == nil {
		return e.inner.FirstResponse(req, maxScan)
	}
	e.tr.begin(spanFrame)
	pos := e.inner.FirstResponse(req, maxScan)
	e.tr.end()
	if pos < 0 {
		e.tr.slots += int64(maxScan)
	} else {
		e.tr.slots += int64(pos + 1)
	}
	return pos
}

func (e *tracedEngine) RunFrameOccupancy(req channel.FrameRequest) channel.Occupancy {
	e.record(engineCall{kind: 2, req: req})
	oe := e.inner.(channel.OccupancyEngine)
	if e.tr == nil {
		return oe.RunFrameOccupancy(req)
	}
	e.tr.begin(spanFrame)
	occ := oe.RunFrameOccupancy(req)
	e.tr.end()
	e.tr.slots += int64(len(occ))
	return occ
}

func (e *tracedEngine) Size() int { return e.inner.Size() }

func (e *tracedEngine) TagTransmissions() int {
	if m, ok := e.inner.(channel.EnergyMeter); ok {
		return m.TagTransmissions()
	}
	return -1
}

// replayCall re-executes a recorded call on eng.
func replayCall(eng channel.Engine, c engineCall) {
	switch c.kind {
	case 0:
		eng.RunFrame(c.req)
	case 1:
		eng.FirstResponse(c.req, c.maxScan)
	default:
		eng.(channel.OccupancyEngine).RunFrameOccupancy(c.req)
	}
}

// tracedStepper times a protocol stepper's Plan, Absorb and RunLegacy as
// child spans of the round StepRound drives. It only forwards: the one
// driver stays channel.StepRound.
type tracedStepper struct {
	inner estimators.Stepper
	tr    *tracer
}

func (s *tracedStepper) Plan() channel.RoundSpec {
	s.tr.begin(spanPlan)
	spec := s.inner.Plan()
	s.tr.end()
	return spec
}

func (s *tracedStepper) Absorb(o channel.RoundObs) (bool, error) {
	s.tr.begin(spanAbsorb)
	done, err := s.inner.Absorb(o)
	s.tr.end()
	return done, err
}

// RunLegacy forwards the legacy adapter's whole-protocol round; without it
// StepRound would refuse the six legacy-adapted protocols.
func (s *tracedStepper) RunLegacy(r *channel.Reader) (bool, error) {
	lr, ok := s.inner.(channel.LegacyRunner)
	if !ok {
		return false, errors.New("legacy round from a stepper without RunLegacy")
	}
	s.tr.begin(spanLegacy)
	done, err := lr.RunLegacy(r)
	s.tr.end()
	return done, err
}

// session mirrors System.sessionAt: the engine and reader seed a System
// derives from its seed and the run's salt. If the library changes that
// derivation, re-driven results stop matching System.Run and the traced
// run fails its correctness gate rather than pricing a different run.
func session(sp systemPlan, pop *tags.Population, salt uint64, tr *tracer, calls *[]engineCall) *channel.Reader {
	s := xrand.Combine(sp.Seed, 0x5e55, salt)
	var eng channel.Engine
	if sp.Synthetic {
		eng = channel.NewBallsEngine(sp.N, s)
	} else {
		mode := channel.IdealRN
		if sp.PaperHash {
			mode = channel.PaperXOR
		}
		eng = channel.NewTagEngine(pop, mode)
	}
	if tr != nil || calls != nil {
		eng = &tracedEngine{inner: eng, tr: tr, calls: calls}
	}
	return channel.NewReader(eng, s+2)
}

// population regenerates the tag population rfidest.NewSystem builds for
// sp, for re-driving tag-level sessions outside the System.
func population(sp systemPlan) *tags.Population {
	if sp.Synthetic {
		return nil
	}
	return tags.Generate(sp.N, tags.T1, xrand.Combine(sp.Seed, 0x5757))
}

// redrive re-executes one op over a fresh session through the timing
// wrappers: each StepRound is a channel.round span whose children are the
// stepper's Plan/Absorb/RunLegacy and the engine's frames.
func redrive(ctx context.Context, tr *tracer, sp systemPlan, pop *tags.Population, name string, acc estimators.Accuracy, salt uint64) (rfidest.Estimate, error) {
	est, err := estimators.New(name)
	if err != nil {
		return rfidest.Estimate{}, err
	}
	st, err := estimators.AsStepper(est, acc)
	if err != nil {
		return rfidest.Estimate{}, err
	}
	r := session(sp, pop, salt, tr, nil)
	start := r.Cost()
	ts := &tracedStepper{inner: st, tr: tr}
	for {
		tr.begin(spanRound)
		done, err := channel.StepRound(ctx, r, ts)
		tr.end()
		if err != nil {
			r.EndPhase()
			return rfidest.Estimate{}, err
		}
		if done {
			r.EndPhase()
			break
		}
	}
	res := st.Result(r.Cost().Sub(start), r.Profile)
	return rfidest.Estimate{
		N: res.Estimate, Seconds: res.Seconds, Slots: res.Slots, ReaderBits: res.Cost.ReaderBits,
		Rounds: res.Rounds, Guarded: res.Guarded, Saturated: res.Saturated, TagTransmissions: r.TagTransmissions(),
	}, nil
}

// allocSplit is the isolated allocation count of re-driven ops, split
// between the frame engine and the rest of each round.
type allocSplit struct {
	rounds, frames           int64
	loopMallocs, loopBytes   uint64 // the whole StepRound loop
	frameMallocs, frameBytes uint64 // the engine calls alone, replayed
}

// measureAllocs re-drives one op three times on this goroutine: once to
// record its engine calls, once to count the StepRound loop's allocations,
// and once to count the recorded engine calls' allocations alone.
func (a *allocSplit) measureAllocs(ctx context.Context, sp systemPlan, pop *tags.Population, name string, acc estimators.Accuracy, salt uint64) error {
	newStepper := func() (estimators.Stepper, error) {
		est, err := estimators.New(name)
		if err != nil {
			return nil, err
		}
		return estimators.AsStepper(est, acc)
	}
	var calls []engineCall
	st, err := newStepper()
	if err != nil {
		return err
	}
	if err := channel.Drive(ctx, session(sp, pop, salt, nil, &calls), st); err != nil {
		return err
	}

	st, err = newStepper()
	if err != nil {
		return err
	}
	r := session(sp, pop, salt, nil, nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for {
		done, err := channel.StepRound(ctx, r, st)
		a.rounds++
		if err != nil {
			r.EndPhase()
			return err
		}
		if done {
			r.EndPhase()
			break
		}
	}
	runtime.ReadMemStats(&m1)
	a.loopMallocs += m1.Mallocs - m0.Mallocs
	a.loopBytes += m1.TotalAlloc - m0.TotalAlloc

	eng := session(sp, pop, salt, nil, nil).Engine
	runtime.ReadMemStats(&m0)
	for _, c := range calls {
		replayCall(eng, c)
	}
	runtime.ReadMemStats(&m1)
	a.frames += int64(len(calls))
	a.frameMallocs += m1.Mallocs - m0.Mallocs
	a.frameBytes += m1.TotalAlloc - m0.TotalAlloc
	return nil
}

// fingerprint hashes every field of an estimate, floats by their bits: two
// estimates are bit-identical when their fingerprints match, and the gate
// keeps one word per op.
func fingerprint(e rfidest.Estimate) uint64 {
	flags := uint64(0)
	if e.Guarded {
		flags |= 1
	}
	if e.Saturated {
		flags |= 2
	}
	return xrand.Combine(math.Float64bits(e.N), math.Float64bits(e.Seconds), uint64(e.Slots), uint64(e.ReaderBits),
		uint64(e.Rounds), uint64(e.TagTransmissions), uint64(e.Retries), flags)
}

func describe(e rfidest.Estimate) string {
	return fmt.Sprintf("{n=%v s=%v slots=%d bits=%d rounds=%d tx=%d}", e.N, e.Seconds, e.Slots, e.ReaderBits, e.Rounds, e.TagTransmissions)
}
