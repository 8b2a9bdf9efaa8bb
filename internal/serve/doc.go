// Package serve is the network serving layer: an HTTP/JSON front over the
// estimation stack, built on net/http only.
//
// Endpoints:
//
//	POST /v1/estimate  one (system, estimator, ε, δ, salt) estimation
//	POST /v1/batch     a fleet batch (pooled or interleaved scheduling)
//	POST /v1/monitor   the next warm round of a named monitoring loop
//	GET  /v1/metrics   estimation + request metrics (text or JSON)
//	GET  /healthz      liveness (200 for as long as the process answers)
//	GET  /readyz       readiness (503 while recovering, draining or shedding)
//
// The layer adds serving concerns without touching estimation semantics:
//
//   - Determinism is preserved end to end. A request may pin its session
//     salt; requests that do not are assigned one derived from the server
//     seed and an admission sequence number, and the assigned salt is
//     echoed in the response so any result can be replayed bit-identically
//     — over HTTP or with an in-process Run. No wall clock or process
//     randomness enters the estimation path; the only wall-clock reads are
//     an injected clock used for latency metrics.
//
//   - Admission control bounds the work in flight: MaxInFlight requests
//     execute, QueueDepth more may wait, and everything beyond that is
//     refused immediately with 429 and a Retry-After hint, so overload
//     degrades by shedding rather than queue collapse.
//
//   - One path per estimate: POST /v1/estimate decodes, validates, admits
//     and then runs System.Run in the handler, under a context that ends
//     with the request's deadline, its client, or the server. A request
//     that gives up therefore stops its session at the next round
//     boundary before it releases its slot, so MaxInFlight bounds the
//     work in flight, not just the waiting.
//
//   - Failures map onto the transport: unknown estimators, malformed
//     specs and accuracy targets past the slot limit are 400
//     (rfidest.ErrUnknownEstimator and rfidest.ErrSlotLimit are detected
//     with errors.Is), admission overflow is 429, deadline expiry is 504,
//     draining is 503, and handler panics are isolated to 500 responses
//     and counted, never taking the process down.
//
//   - Shutdown drains: intake stops (work endpoints return 503, /readyz
//     goes unready while /healthz stays live), in-flight sessions run to
//     completion — every session is bounded in rounds — and if the
//     caller's deadline expires first the base context is cancelled,
//     which stops sessions at their next round boundary.
//
// The package is wired into a process by cmd/rfidserved and load-tested by
// cmd/rfidload.
package serve
