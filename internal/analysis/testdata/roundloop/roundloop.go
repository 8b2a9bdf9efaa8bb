// Package roundlooptest seeds hand-driven round loops for the roundloop
// golden test: direct Plan/Absorb driving (forbidden), stepper-to-stepper
// forwarding (exempt), single-method look-alikes (out of scope), and the
// //lint:allow escape hatch.
package roundlooptest

// spec/obs stand in for channel.RoundSpec/RoundObs; the analyzer matches
// the Plan+Absorb method pair, not the concrete round types, so the
// fixture stays self-contained.
type spec struct{ frame int }

type obsv struct{ idle bool }

// machine is a full round stepper: it carries both halves of the pair.
type machine struct{ round int }

func (m *machine) Plan() spec                  { return spec{frame: m.round} }
func (m *machine) Absorb(o obsv) (bool, error) { m.round++; return m.round > 3, nil }

// stepperIface mirrors channel.Stepper for interface-typed call sites.
type stepperIface interface {
	Plan() spec
	Absorb(obsv) (bool, error)
}

// handDriven is the violation the analyzer exists for: an improvised
// run-to-completion loop outside the shared driver.
func handDriven(m *machine) error {
	for {
		s := m.Plan() // want `\*machine\.Plan drives a protocol round by hand`
		_ = s
		done, err := m.Absorb(obsv{}) // want `\*machine\.Absorb drives a protocol round by hand`
		if err != nil || done {
			return err
		}
	}
}

// handDrivenIface: driving through the interface is the same violation.
func handDrivenIface(s stepperIface) {
	_ = s.Plan()            // want `stepperIface\.Plan drives a protocol round by hand`
	_, _ = s.Absorb(obsv{}) // want `stepperIface\.Absorb drives a protocol round by hand`
}

// wrapper is stepper composition: forwarding Plan/Absorb to a sub-machine
// from inside the wrapper's own Plan/Absorb is part of the machine, not a
// second driver — the real driver sits above both.
type wrapper struct {
	inner *machine
	done  bool
}

func (w *wrapper) Plan() spec {
	if !w.done {
		return w.inner.Plan() // exempt: forwarding frame
	}
	return spec{}
}

func (w *wrapper) Absorb(o obsv) (bool, error) {
	if !w.done {
		done, err := w.inner.Absorb(o) // exempt: forwarding frame
		w.done = done
		return false, err
	}
	return true, nil
}

// planner has Plan but no Absorb: not a round machine, out of scope.
type planner struct{}

func (planner) Plan() spec { return spec{} }

// sink has Absorb but no Plan: likewise out of scope.
type sink struct{}

func (sink) Absorb(o obsv) (bool, error) { return true, nil }

func lookalikes(p planner, s sink) {
	_ = p.Plan()
	_, _ = s.Absorb(obsv{})
}

// Plan as a free function (no receiver) is not a stepper method.
func Plan() spec { return spec{} }

func freeFunc() {
	_ = Plan()
}

// allowed is the sanctioned escape hatch, reason attached at the site.
func allowed(m *machine) {
	_ = m.Plan() //lint:allow roundloop golden-test fixture for the suppression path
}

// notMethodDriving: calling Plan on a non-receiver selector (package-level
// func value in a struct field) stays out of scope.
type holder struct {
	plan func() spec
}

func fieldCall(h holder) {
	_ = h.plan()
}
