// Package rfidest is a library and simulation workbench for RFID tag
// cardinality estimation, built around BFCE — the Bloom Filter based
// Cardinality Estimator of Li, He and Liu, "Towards Constant-Time
// Cardinality Estimation for Large-Scale RFID Systems" (ICPP 2015).
//
// BFCE estimates how many tags sit in a reader's range in a constant
// 1024 + 8192 bit-slots — about 0.19 s of air time under the EPCglobal
// C1G2 timings — regardless of the true cardinality and of the (ε, δ)
// accuracy requirement. The package also implements the protocols BFCE is
// evaluated against (ZOE, SRC) and the broader related work (LOF, UPE,
// EZB, FNEB, MLE, ART, PET), all over one simulated bit-slot channel with
// honest air-time accounting.
//
// # Quick start
//
//	sys := rfidest.NewSystem(500000, rfidest.WithSeed(42))
//	est, err := sys.Run(ctx) // BFCE at the paper's (0.05, 0.05)
//	if err != nil { ... }
//	fmt.Printf("n̂ = %.0f in %.3f s of air time\n", est.N, est.Seconds)
//
// # The Run entry point
//
// System.Run is the context-aware form every estimation flows through,
// configured with functional options:
//
//	est, err := sys.Run(ctx,
//		rfidest.WithEstimator("BFCE"),    // default; any name in Estimators()
//		rfidest.WithAccuracy(0.05, 0.05), // default (ε, δ)
//		rfidest.WithSalt(7),              // deterministic session addressing
//		rfidest.WithObserver(metrics))    // passive instrumentation
//
// The context is checked before every protocol round — the round in
// flight always completes, so a cancelled run leaves its session at a
// round boundary and salted replays stay bit-identical. RunBFCEDetail is
// Run with BFCE's internal diagnostics, and Monitor.Run is a warm-started
// BFCE round; both step the same RunSession loop as Run, so options,
// deadlines, retries and observer spans mean the same on all three.
//
// # Round-structured execution
//
// Run is exactly a StartRun/Step loop, and both halves are public: every
// protocol executes as a resumable round state machine, and a session can
// be driven one protocol round at a time (a broadcast, then a frame, a
// first-busy scan, a silent frame or a bare listen):
//
//	rs, err := sys.StartRun(rfidest.WithSalt(7)) // same options as Run
//	for {
//		done, err := rs.Step(ctx) // one protocol round
//		if done || err != nil { break }
//	}
//	est, err := rs.Result() // == sys.Run(ctx, rfidest.WithSalt(7))
//
// RunSession.Step satisfies the internal/sched Runner interface, whose
// Interleave scheduler advances many sessions breadth-first under one
// deterministic, seeded, single-goroutine loop — each interleaved
// session's estimate is bit-identical to its solo run. The fleet runner
// (Config.Interleave, cmd/rfidfleet -interleave) runs whole batches that
// way. Monitor.Run is the same context-aware entry point for the
// warm-start monitoring loop, and Monitor.Snapshot/Restore checkpoint its
// state across processes. See DESIGN.md §9.
//
// # Observability
//
// WithObserver attaches an Observer to a run: session and protocol-phase
// spans, per-frame slot counts, reader-bit and air-time series. NewMetrics
// returns the aggregating registry (histograms for air time, probe rounds
// and estimation error; snapshots export as JSON or expvar-style text).
// Observation is passive — estimates are bit-identical with and without
// it — and the default no-op observer costs nothing. The rfidfleet and
// experiments CLIs expose the registry via -metrics text|json; see
// examples/observability and DESIGN.md §14.
//
// # Faults, retries and degraded results
//
// WithFaults installs a deterministic channel-fault injector on a system
// (Gilbert–Elliott burst noise, slot erasures, frame truncation, reader
// stalls; FaultSeverity scales all four from one knob in [0, 1]) and
// WithRetry re-runs a saturated round with fresh frame seeds under a
// simulated air-time budget:
//
//	sys := rfidest.NewSystem(n, rfidest.WithFaults(rfidest.FaultSeverity(0.5)))
//	est, err := sys.Run(ctx, rfidest.WithRetry(2, 0.5))
//
// The degraded-result contract: a run whose every attempt observed a
// degenerate all-idle/all-busy vector still returns its estimate, with
// Estimate.Saturated set — the value is a resolution bound on the true
// cardinality, not a measurement — and Estimate.Retries reporting what
// recovery cost. Degradation is never an error. Both mechanisms are
// strictly passive by default (a zero plan and an unused retry budget
// replay bit-identically to a plain run), and fault schedules are a pure
// function of (system seed, plan, session salt). The fleet runner takes
// WithRetry and WithTimeout through a job's Options and adds no ladder of
// its own: a saturated trial is kept and flags its job
// (JobResult.Degraded), a trial error fails its job but never the batch,
// and the job's air time counts every attempt. Stalls are charged to
// every protocol's air time. UPE reads slot states, which the fault
// injector does not model, so on a faulted system its first round fails
// with an error before any broadcast. See internal/faults and DESIGN.md
// §14.
//
// # What is simulated
//
// A System is a population of tags behind a time-slotted reader-talks-first
// channel (§III-A of the paper): the reader broadcasts parameters and
// seeds, tags hash themselves into bit-slots and respond with a persistence
// probability, and the reader senses each slot as busy or idle. Populations
// can be materialized tag-by-tag (with the paper's XOR/bitget tag-side
// hash if desired) or sampled from the exact frame statistics for speed;
// both fidelities produce the same estimator behaviour.
//
// Every estimate reports the protocol's communication cost priced under
// EPCglobal C1G2 (reader bit 37.76 µs, tag bit-slot 18.88 µs, 302 µs
// turnaround), which is the paper's "overall execution time" metric — the
// one on which BFCE is constant-time and ZOE, despite its O(log log n)
// slot count, is not.
//
// # Concurrency
//
// A System is safe to estimate from concurrently: population and
// configuration are immutable once built, every Run opens a fresh session
// over them, and the shared session counter is atomic. Counter-derived
// sessions make concurrent calls independent but their numbering
// scheduling-dependent; WithSeedSalt addresses a session by an explicit
// salt instead, replaying bit-identically regardless of what else is in
// flight. Monitor and Tracker carry state between rounds by
// design and are single-goroutine. The internal/fleet runner (driven by
// cmd/rfidfleet) fans batches of estimation jobs across a bounded worker
// pool on top of these guarantees, with results independent of the worker
// count.
//
// # Serving
//
// internal/serve exposes estimation over HTTP/JSON (stdlib net/http
// only), with cmd/rfidserved as the daemon and cmd/rfidload as a
// closed-loop load generator. POST /v1/estimate answers one estimation
// and POST /v1/batch runs a whole fleet batch (optionally on the
// interleaving scheduler); GET /v1/metrics exports the estimation and
// HTTP registries as text or JSON. Each estimate request is one in-handler
// Run. Determinism survives the transport: a request that pins a salt
// returns the bit-identical estimate of the equivalent in-process
// Run(WithSalt(...)), and server-assigned salts are derived from the
// configured seed and echoed for replay. Admission is bounded (in-flight
// slots plus a short queue; overflow sheds with 429 and Retry-After,
// deadlines map to 504, and an accuracy target past ErrSlotLimit or a
// protocol the system's channel cannot run, ErrUnsupportedRound, is 400),
// and shutdown drains in-flight sessions at round boundaries. See
// DESIGN.md §10.
//
// # Resilience
//
// The serving layer is crash-safe and chaos-hardened. With a state
// directory configured, internal/checkpoint persists assigned salts and
// monitor warm state through atomic snapshots plus a CRC-framed
// write-ahead log, each POST /v1/monitor round made durable before it is
// acknowledged — a crash never loses acked work, and a restart replays
// pinned-salt requests bit-identically and continues monitor round
// counts. Per-estimator circuit breakers shed with 503 and Retry-After
// while an estimator keeps failing (GET /healthz stays pure liveness;
// GET /readyz carries readiness). internal/client retries transient
// failures under capped full-jitter backoff, honors Retry-After as a
// floor, and hedges pinned-salt requests with a bit-identity check on
// the two legs; internal/chaoshttp injects deterministic wire faults on
// either end for drills and tests. All of it is seeded: recovery and
// retry behaviour replays exactly like estimation behaviour. See
// DESIGN.md §11.
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/experiments; DESIGN.md maps each experiment to the
// modules involved and EXPERIMENTS.md records paper-vs-measured outcomes.
package rfidest
