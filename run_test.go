package rfidest_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rfidest"
	"rfidest/internal/goldengrid"
)

// TestRunMatchesGoldenGrid proves the Run entry point reproduces the
// 74-case golden grid bit-for-bit — once bare and once with a live metrics
// observer attached, pinning both the wrapper equivalence and the
// observation-passivity contract across every estimator and engine kind.
func TestRunMatchesGoldenGrid(t *testing.T) {
	ctx := context.Background()
	reg := rfidest.NewMetrics()
	system := goldenSystems(t)
	cases := goldengrid.Cases()
	for _, c := range cases {
		sys := system(c.System)
		opts := []rfidest.Option{
			rfidest.WithEstimator(c.Estimator),
			rfidest.WithAccuracy(goldengrid.Epsilon, goldengrid.Delta),
			rfidest.WithSalt(c.Salt),
		}
		got, err := sys.Run(ctx, opts...)
		if err != nil {
			t.Errorf("%s/%s/0x%x: %v", c.System, c.Estimator, c.Salt, err)
			continue
		}
		if got != c.Want {
			t.Errorf("%s/%s/0x%x:\n got  %+v\n want %+v", c.System, c.Estimator, c.Salt, got, c.Want)
		}
		observed, err := sys.Run(ctx, append(opts, rfidest.WithObserver(reg))...)
		if err != nil {
			t.Errorf("%s/%s/0x%x observed: %v", c.System, c.Estimator, c.Salt, err)
			continue
		}
		if observed != c.Want {
			t.Errorf("%s/%s/0x%x: observer perturbed the estimate:\n got  %+v\n want %+v",
				c.System, c.Estimator, c.Salt, observed, c.Want)
		}
	}
	if s := reg.Snapshot(); s.Sessions != int64(len(cases)) {
		t.Errorf("registry saw %d sessions, want %d", s.Sessions, len(cases))
	}
}

// TestRunDefaults: a bare Run is BFCE at the paper's (0.05, 0.05).
func TestRunDefaults(t *testing.T) {
	sys := rfidest.NewSystem(20000, rfidest.WithSeed(3), rfidest.WithSynthetic())
	got, err := sys.Run(context.Background(), rfidest.WithSalt(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Run(context.Background(), rfidest.WithEstimator("BFCE"), rfidest.WithAccuracy(0.05, 0.05), rfidest.WithSeedSalt(7))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("default Run = %+v, want BFCE/(0.05,0.05) result %+v", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	sys := rfidest.NewSystem(1000, rfidest.WithSynthetic())
	ctx := context.Background()
	if _, err := sys.Run(ctx, rfidest.WithEstimator("nope")); err == nil ||
		!strings.Contains(err.Error(), `unknown estimator "nope"`) {
		t.Errorf("unknown estimator: err = %v", err)
	}
	if _, err := sys.Run(ctx, rfidest.WithAccuracy(0, 0.5)); err == nil ||
		!strings.Contains(err.Error(), "epsilon and delta must be in (0, 1)") {
		t.Errorf("bad accuracy: err = %v", err)
	}
	if _, err := sys.RunBFCEDetail(ctx, rfidest.WithEstimator("ZOE")); err == nil ||
		!strings.Contains(err.Error(), "BFCE only") {
		t.Errorf("detail with foreign estimator: err = %v", err)
	}
	if _, err := sys.RunBFCEDetail(ctx, rfidest.WithAccuracy(2, 0.5)); err == nil ||
		!strings.Contains(err.Error(), "epsilon and delta must be in (0, 1)") {
		t.Errorf("detail bad accuracy: err = %v", err)
	}
}

// TestRunCancellation: a done context stops the run before the session
// opens; nil contexts are accepted.
func TestRunCancellation(t *testing.T) {
	sys := rfidest.NewSystem(1000, rfidest.WithSynthetic())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := sys.RunBFCEDetail(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunBFCEDetail on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := sys.Run(nil, rfidest.WithSalt(1)); err != nil { //nolint:staticcheck // nil ctx tolerance is part of the contract
		t.Errorf("Run(nil ctx): %v", err)
	}
}

// TestRunBFCEDetailAgreesWithRun: the detail path and the registry path
// execute the same protocol over the same salted session, so the headline
// fields — and, post-fix, TagTransmissions — must agree.
func TestRunBFCEDetailAgreesWithRun(t *testing.T) {
	sys := rfidest.NewSystem(20000, rfidest.WithSeed(42))
	ctx := context.Background()
	det, err := sys.RunBFCEDetail(ctx, rfidest.WithAccuracy(0.1, 0.1), rfidest.WithSalt(0x1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.Run(ctx, rfidest.WithAccuracy(0.1, 0.1), rfidest.WithSalt(0x1))
	if err != nil {
		t.Fatal(err)
	}
	if det.Estimate.N != est.N || det.Estimate.Seconds != est.Seconds || //lint:allow floatcmp bit-identity across entry points is the contract under test
		det.Estimate.ReaderBits != est.ReaderBits {
		t.Errorf("detail estimate %+v diverges from Run %+v", det.Estimate, est)
	}
	if det.Estimate.TagTransmissions != est.TagTransmissions {
		t.Errorf("detail TagTransmissions = %d, Run reports %d",
			det.Estimate.TagTransmissions, est.TagTransmissions)
	}
	if det.Estimate.TagTransmissions <= 0 {
		t.Errorf("tag-backed detail run reports TagTransmissions = %d, want > 0",
			det.Estimate.TagTransmissions)
	}
}

// TestRunMetricsEndToEnd: one observed BFCE run populates every series the
// ISSUE's snapshot contract names — per-phase slots, air time and probe
// rounds.
func TestRunMetricsEndToEnd(t *testing.T) {
	sys := rfidest.NewSystem(50000, rfidest.WithSeed(7), rfidest.WithSynthetic())
	reg := rfidest.NewMetrics()
	if _, err := sys.Run(context.Background(), rfidest.WithSalt(9), rfidest.WithObserver(reg)); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Sessions != 1 || s.Errors != 0 {
		t.Fatalf("sessions/errors = %d/%d", s.Sessions, s.Errors)
	}
	for _, p := range []string{"probe", "rough", "accurate"} {
		var found bool
		for _, ps := range s.Phases {
			if ps.Phase == p {
				found = true
				if ps.Spans != 1 || ps.Slots == 0 || ps.Seconds.Count != 1 {
					t.Errorf("%s phase: spans=%d slots=%d seconds.count=%d",
						p, ps.Spans, ps.Slots, ps.Seconds.Count)
				}
			}
		}
		if !found {
			t.Errorf("snapshot missing phase %q", p)
		}
	}
	if s.AirTimeSeconds.Count != 1 || s.ProbeRounds.Count != 1 || s.EstimateRelErr.Count != 1 {
		t.Errorf("histograms air/probe/err counts = %d/%d/%d, want 1 each",
			s.AirTimeSeconds.Count, s.ProbeRounds.Count, s.EstimateRelErr.Count)
	}
	if s.Slots == 0 || s.ReaderBits == 0 {
		t.Errorf("global counters empty: slots=%d bits=%d", s.Slots, s.ReaderBits)
	}
}
