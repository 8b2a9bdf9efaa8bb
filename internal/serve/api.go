package serve

import (
	"errors"
	"fmt"
	"sync"

	"rfidest"
	"rfidest/internal/fleet"
)

// Sentinel errors of the serving layer; httpStatus maps them onto the
// transport.
var (
	// ErrOverloaded reports the admission queue was full; 429.
	ErrOverloaded = errors.New("serve: overloaded, retry later")
	// ErrShuttingDown reports the server is draining; 503.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrBreakerOpen reports the estimator's circuit breaker is shedding
	// traffic; 503 with a Retry-After hint.
	ErrBreakerOpen = errors.New("serve: estimator circuit breaker open, retry later")
	// ErrMonitorConflict reports a monitor name is already bound to a
	// different configuration; 409.
	ErrMonitorConflict = errors.New("serve: monitor exists with a different configuration")
)

// SystemSpec describes a deployment on the wire. It mirrors the
// rfidest.NewSystem option surface: every field is a SystemOption, so two
// equal specs build interchangeable systems — which is what lets the
// server cache them. The zero value of every optional field means "option
// absent".
type SystemSpec struct {
	// N is the true tag population (required, 1..MaxSystemN).
	N int `json:"n"`
	// Seed pins the simulation randomness (0 means the library default).
	Seed uint64 `json:"seed,omitempty"`
	// Distribution is "uniform" (default), "approx-normal" or "normal".
	Distribution string `json:"distribution,omitempty"`
	// Synthetic skips materializing tags (rfidest.WithSynthetic).
	Synthetic bool `json:"synthetic,omitempty"`
	// PaperTagHash selects the paper's literal tag hash
	// (rfidest.WithPaperTagHash); IDHash hashes raw tagIDs
	// (rfidest.WithIDHash). At most one may be set.
	PaperTagHash bool `json:"paperTagHash,omitempty"`
	IDHash       bool `json:"idHash,omitempty"`
	// FalseBusy and FalseIdle, when either is nonzero, wrap the channel
	// with symmetric reader noise (rfidest.WithNoise).
	FalseBusy float64 `json:"falseBusy,omitempty"`
	FalseIdle float64 `json:"falseIdle,omitempty"`
}

// validate checks the spec against maxN and returns a client-facing error.
func (sp SystemSpec) validate(maxN int) error {
	if sp.N <= 0 {
		return fmt.Errorf("system.n must be positive, got %d", sp.N)
	}
	if sp.N > maxN {
		return fmt.Errorf("system.n %d exceeds the server limit %d", sp.N, maxN)
	}
	switch sp.Distribution {
	case "", "uniform", "approx-normal", "normal":
	default:
		return fmt.Errorf("unknown distribution %q (want uniform, approx-normal or normal)", sp.Distribution)
	}
	if sp.PaperTagHash && sp.IDHash {
		return errors.New("paperTagHash and idHash are mutually exclusive")
	}
	if !(sp.FalseBusy >= 0 && sp.FalseBusy < 1) || !(sp.FalseIdle >= 0 && sp.FalseIdle < 1) {
		return fmt.Errorf("noise rates must be in [0, 1), got falseBusy=%v falseIdle=%v", sp.FalseBusy, sp.FalseIdle)
	}
	return nil
}

// build constructs the system the spec names. Callers validate first.
func (sp SystemSpec) build() *rfidest.System {
	var opts []rfidest.SystemOption
	if sp.Seed != 0 {
		opts = append(opts, rfidest.WithSeed(sp.Seed))
	}
	switch sp.Distribution {
	case "approx-normal":
		opts = append(opts, rfidest.WithDistribution(rfidest.ApproxNormal))
	case "normal":
		opts = append(opts, rfidest.WithDistribution(rfidest.Normal))
	}
	if sp.Synthetic {
		opts = append(opts, rfidest.WithSynthetic())
	}
	if sp.PaperTagHash {
		opts = append(opts, rfidest.WithPaperTagHash())
	}
	if sp.IDHash {
		opts = append(opts, rfidest.WithIDHash())
	}
	if sp.FalseBusy != 0 || sp.FalseIdle != 0 {
		opts = append(opts, rfidest.WithNoise(sp.FalseBusy, sp.FalseIdle))
	}
	return rfidest.NewSystem(sp.N, opts...)
}

// systemCache memoizes built systems by spec. Building a non-synthetic
// system materializes its whole tag population, so repeated requests
// against the same deployment — the common serving pattern — must not
// rebuild it. SystemSpec is comparable, so the spec itself is the key.
type systemCache struct {
	mu      sync.Mutex
	max     int
	systems map[SystemSpec]*rfidest.System
}

func newSystemCache(max int) *systemCache {
	return &systemCache{max: max, systems: make(map[SystemSpec]*rfidest.System)}
}

// get returns the cached system for spec, building it on first use.
// Estimation over a shared System is concurrency-safe (salted sessions),
// so one instance serves any number of in-flight requests.
func (c *systemCache) get(spec SystemSpec) *rfidest.System {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sys, ok := c.systems[spec]; ok {
		return sys
	}
	if len(c.systems) >= c.max {
		// The cache is a working set, not a registry: drop an arbitrary
		// entry rather than grow without bound. Eviction only costs a
		// rebuild on the next request for the dropped spec.
		for k := range c.systems {
			delete(c.systems, k)
			break
		}
	}
	sys := spec.build()
	c.systems[spec] = sys
	return sys
}

// EstimateRequest is the POST /v1/estimate body.
type EstimateRequest struct {
	System SystemSpec `json:"system"`
	// Estimator names a registered protocol (default "BFCE"); unknown
	// names fail with 400 and the known list.
	Estimator string `json:"estimator,omitempty"`
	// Epsilon and Delta form the accuracy requirement, both in (0, 1).
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// Salt addresses the estimation session. Omitted, the server assigns
	// a deterministic salt (derived from its seed and an admission
	// sequence number) and echoes it in the response; replaying a request
	// with the echoed salt reproduces the estimate bit-identically.
	Salt *uint64 `json:"salt,omitempty"`
	// TimeoutMs bounds the request, admission wait included; 0 means the
	// server default, and a longer one is cut to it. The run stops at a
	// round boundary, so expiry is 504 with deterministic partial
	// accounting.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// EstimateResponse is the POST /v1/estimate reply.
type EstimateResponse struct {
	Estimate  rfidest.Estimate `json:"estimate"`
	Estimator string           `json:"estimator"`
	// Salt is the session the estimate was produced under — the request's
	// salt if it pinned one, otherwise the server-assigned salt.
	Salt uint64 `json:"salt"`
	// Batched is always false: the server answers every estimate with one
	// in-handler run, and omitempty keeps the field off the wire.
	//
	// Deprecated: the micro-batcher that set it was removed (it never
	// changed an estimate and only added latency). The field stays because
	// the ledgerbench benchmark still reads it.
	Batched bool `json:"batched,omitempty"`
}

// BatchJob is one job in a POST /v1/batch body — fleet.Job with the
// process-local System pointer replaced by a SystemSpec and the option
// surface lowered to wire scalars.
type BatchJob struct {
	Name      string     `json:"name,omitempty"`
	System    SystemSpec `json:"system"`
	Estimator string     `json:"estimator,omitempty"` // default "BFCE"
	Epsilon   float64    `json:"epsilon"`
	Delta     float64    `json:"delta"`
	// Trials is the job's session count (0 means 1); a batch's sessions
	// count against the server's MaxBatchSessions.
	Trials int `json:"trials,omitempty"`
	// Retries re-runs each trial's saturated rounds up to this many times
	// inside its session (rfidest.WithRetry(retries, 0)).
	Retries int `json:"retries,omitempty"`
	// Salt pins every trial of the job to one session
	// (rfidest.WithSeedSalt); omitted, trials derive per-trial salts from
	// the batch seed as in-process fleet runs do.
	Salt *uint64 `json:"salt,omitempty"`
	// TimeoutMs bounds each trial (rfidest.WithTimeout).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Jobs []BatchJob `json:"jobs"`
	// Seed roots the per-trial salts (0 means the server seed), so equal
	// (seed, jobs) batches replay bit-identically across processes.
	Seed uint64 `json:"seed,omitempty"`
	// Interleave selects the deterministic round scheduler instead of the
	// worker pool; results are bit-identical either way.
	Interleave bool `json:"interleave,omitempty"`
	// Workers bounds the pooled mode (0 means GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// TimeoutMs bounds the whole batch (0 means the server default, and a
	// longer one is cut to it); expiry returns 504 with the partial report
	// (unstarted jobs marked skipped).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// BatchResponse is the POST /v1/batch reply. On deadline expiry Report
// still carries the partial results next to the error text.
type BatchResponse struct {
	Report *fleet.Report `json:"report"`
	Error  string        `json:"error,omitempty"`
}

// MonitorRequest is the POST /v1/monitor body: run the next warm round of
// the named monitor, creating it on first use. A monitor's configuration
// (system, epsilon, delta, fastRounds) is fixed at creation; a request
// naming an existing monitor with a different configuration is refused
// with 409 rather than silently rebinding warm state to a new deployment.
type MonitorRequest struct {
	// Name identifies the monitoring loop; warm state and the checkpoint
	// record are keyed by it.
	Name   string     `json:"name"`
	System SystemSpec `json:"system"`
	// Epsilon and Delta form the accuracy requirement, both in (0, 1).
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// FastRounds is how many consecutive rounds may skip the rough phase
	// (see rfidest.NewMonitor).
	FastRounds int `json:"fastRounds,omitempty"`
	// Salt pins the round's session; omitted, the server assigns one from
	// its durable sequence and echoes it.
	Salt *uint64 `json:"salt,omitempty"`
	// TimeoutMs bounds the round; 0 means the server default, and a
	// longer one is cut to it.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// MonitorResponse is the POST /v1/monitor reply.
type MonitorResponse struct {
	Estimate rfidest.Estimate `json:"estimate"`
	// Salt is the session the round ran under.
	Salt uint64 `json:"salt"`
	// Rounds is the monitor's completed-round count including this one —
	// after a crash and recovery it continues, never restarts.
	Rounds int `json:"rounds"`
	// Warm echoes the warm-start state the round left behind (what the
	// checkpoint now holds).
	Warm rfidest.MonitorState `json:"warm"`
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
