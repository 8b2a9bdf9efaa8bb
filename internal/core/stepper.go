package core

import (
	"errors"

	"rfidest/internal/channel"
	"rfidest/internal/obs"
	"rfidest/internal/timing"
)

// Stepper is BFCE as a round state machine: the probe, rough and
// accurate phases of §IV expressed as channel.RoundSpec plans and Absorb
// transitions, with no direct session access. The shared round driver
// (channel.Drive / channel.StepRound) executes the plans; the Stepper only
// decides what the next round looks like and folds what came back.
//
// The machine replays the monolithic loop exactly — same broadcast sizes,
// same frame geometries, same seed-draw order (one fresh seed for the
// whole probe, then one per remaining phase), same clamp and break
// conditions — so a driven Stepper is bit-identical to the pre-refactor
// Estimate.
//
// A Stepper is a plain value: the held probe seed travels inside the
// state, not in the driver, so a copy of an unstarted machine is a fresh
// run (BFCE-multi restarts each of its runs that way).
type Stepper struct {
	cfg Config
	res Result

	state stepState
	round int    // probe rounds executed so far
	seed  uint64 // held probe frame seed (valid once seeded)

	probePn int  // current probe numerator
	seeded  bool // a probe seed has been drawn and held
	fast    bool // warm accurate-only round (Monitor FastRounds)
}

type stepState uint8

const (
	stepProbe stepState = iota
	stepRough
	stepAccurate
	stepDone
)

// Stepper returns a fresh round state machine for one full protocol run
// under the estimator's configuration.
func (e *Estimator) Stepper() *Stepper {
	return &Stepper{cfg: e.cfg, probePn: e.cfg.InitialPn}
}

// newFastStepper builds the Monitor's warm accurate-only round: probe and
// rough are skipped, the previous round's estimate (discounted by the
// confidence interval and by c) stands in for the rough lower bound, and
// the single full frame runs outside any named phase span — matching the
// monolithic fastRound to the bit.
func newFastStepper(cfg Config, warmPn int, warmN float64) *Stepper {
	s := &Stepper{cfg: cfg, state: stepAccurate, fast: true}
	s.res.PsNum = warmPn
	s.res.Rough = warmN
	s.res.LowerBound = cfg.C * (1 - cfg.Epsilon) * warmN
	if s.res.LowerBound < 1 {
		s.res.LowerBound = 1
	}
	po, feasible := OptimalPn(s.res.LowerBound, cfg.K, cfg.W, PDenom, cfg.Epsilon, cfg.Delta)
	if !feasible {
		po = FallbackPn(s.res.LowerBound, cfg.K, cfg.W, PDenom)
	}
	s.res.Feasible = feasible
	s.res.PoNum = po
	return s
}

// Plan implements channel.Stepper.
func (s *Stepper) Plan() channel.RoundSpec {
	cfg := s.cfg
	switch s.state {
	case stepProbe:
		spec := channel.RoundSpec{
			Phase: obs.PhaseProbe,
			Frame: channel.FrameRequest{
				W:       cfg.W,
				K:       cfg.K,
				P:       float64(s.probePn) / float64(PDenom),
				Observe: probeWindow,
			},
		}
		if s.round == 0 && !s.seeded {
			// First probe round: the reader broadcasts the k seeds and the
			// starting numerator once; the driver draws the frame seed all
			// probe rounds will share.
			spec.Broadcast = s.paramBits()
		} else {
			// Re-probe: only the adjusted numerator is re-broadcast, and
			// the held seed is reused so raising pn monotonically adds
			// responders.
			spec.Broadcast = timing.PnBits
			spec.ReuseSeed = true
			spec.Frame.Seed = s.seed
		}
		return spec
	case stepRough:
		probes := s.res.ProbeRounds
		return channel.RoundSpec{
			Phase: obs.PhaseRough,
			// The probe-rounds hook fires between the probe span's end and
			// the rough span's start, as the monolithic loop did.
			Report:    func(o obs.Observer) { o.ProbeRounds(probes) },
			Broadcast: s.paramBits(),
			Frame: channel.FrameRequest{
				W:       cfg.W,
				K:       cfg.K,
				P:       float64(s.res.PsNum) / float64(PDenom),
				Observe: cfg.RoughSlots,
			},
		}
	case stepAccurate:
		spec := channel.RoundSpec{
			Phase:     obs.PhaseAccurate,
			Broadcast: s.paramBits(),
			Frame: channel.FrameRequest{
				W: cfg.W,
				K: cfg.K,
				P: float64(s.res.PoNum) / float64(PDenom),
			},
		}
		if s.fast {
			// A warm fast round runs outside any named phase span.
			spec.Phase = obs.PhaseRun
		}
		return spec
	default:
		// Plan after done is a driver contract violation; return an inert
		// zero-slot spec rather than panicking in protocol code.
		return channel.RoundSpec{Frame: channel.FrameRequest{W: 1, K: 1, P: 0}}
	}
}

// paramBits is the per-phase reader broadcast: k 32-bit seeds plus the
// 32-bit persistence numerator (w and k are preloaded on tags, §IV-E.1).
func (s *Stepper) paramBits() int {
	return s.cfg.K*timing.SeedBits + timing.PnBits
}

// Absorb implements channel.Stepper.
func (s *Stepper) Absorb(o channel.RoundObs) (bool, error) {
	cfg := s.cfg
	switch s.state {
	case stepProbe:
		if !s.seeded {
			s.seed = o.Seed
			s.seeded = true
		}
		busy := o.Frame.CountBusy()
		settled := false
		switch {
		case busy > 0 && busy < probeWindow:
			settled = true // both idle and busy slots appeared: p_s is valid
		case s.round+1 >= maxProbeRounds:
			settled = true // give up; the rough phase clamps if still degenerate
		case busy == 0:
			if s.probePn >= PDenom-1 {
				settled = true // even the largest p draws no response
			} else {
				s.probePn += 2
				if s.probePn > PDenom-1 {
					s.probePn = PDenom - 1
				}
			}
		default: // all busy
			if s.probePn <= 1 {
				settled = true // even the smallest p saturates the window
			} else {
				s.probePn--
			}
		}
		if settled {
			s.res.PsNum = s.probePn
			s.state = stepRough
		} else {
			s.res.ProbeRounds++
			s.round++
		}
		return false, nil

	case stepRough:
		s.res.RhoRough, s.res.Saturated = clampRho(o.Frame.RhoIdle(), cfg.RoughSlots)
		s.res.Rough = EstimateFromRho(s.res.RhoRough, cfg.K, float64(s.res.PsNum)/float64(PDenom), cfg.W)
		s.res.LowerBound = cfg.C * s.res.Rough
		if s.res.LowerBound < 1 {
			s.res.LowerBound = 1
		}
		po, feasible := OptimalPn(s.res.LowerBound, cfg.K, cfg.W, PDenom, cfg.Epsilon, cfg.Delta)
		if !feasible {
			po = FallbackPn(s.res.LowerBound, cfg.K, cfg.W, PDenom)
		}
		s.res.Feasible = feasible
		s.res.PoNum = po
		s.state = stepAccurate
		return false, nil

	case stepAccurate:
		rho, saturated := clampRho(o.Frame.RhoIdle(), cfg.W)
		s.res.RhoFinal = rho
		s.res.Saturated = s.res.Saturated || saturated
		s.res.Estimate = EstimateFromRho(rho, cfg.K, float64(s.res.PoNum)/float64(PDenom), cfg.W)
		s.state = stepDone
		return true, nil

	default:
		return true, errors.New("core: Absorb after protocol completion")
	}
}

// Result returns the protocol outcome accumulated so far. Cost and Seconds
// are left zero: the driver that owns the session clock stamps them (see
// driveStepper), keeping the Stepper free of session state.
func (s *Stepper) Result() Result { return s.res }
