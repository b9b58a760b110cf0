// Package fleet turns the scheduler's two-phase lease API into a real
// distributed execution layer: a coordinator exposes PickWork/Complete over
// HTTP, and elastic worker agents (cmd/easeml-worker, or in-process Agents)
// register with their capabilities, poll for leases, execute them through a
// pluggable Executor, stream heartbeats and report results. Leases carry a
// TTL — a worker that dies mid-training goes silent, its leases expire, and
// the expiry sweeper re-queues the candidates into GP-BUCB selection
// exactly once — so the fleet survives worker churn without losing or
// double-counting work.
//
//	            register/heartbeat          ┌──────────┐
//	  ┌──────────────────────────────────── │ agent 0  │──Execute──▶ Executor
//	  ▼                                     └──────────┘             (trainsim,
//	coordinator ──lease──▶ agents … ──complete──▶ coordinator          or yours)
//	  │
//	  ├── registry: join/leave/dead, per-worker in-flight + failures
//	  └── sweeper: lease TTL expiry ──▶ re-queue + WAL lease_expired
//
// A service's in-process workers are an Agent too (Coordinator.LocalAgent),
// reaching the coordinator through direct method calls instead of HTTP, so
// every worker — local or remote — holds leases with one semantics: TTL,
// heartbeat, preemption, speculative grants and the retry budget.
package fleet

import "repro/internal/telemetry"

// The coordinator's HTTP protocol. All endpoints speak JSON:
//
//	POST /fleet/register    RegisterRequest  → RegisterResponse
//	POST /fleet/lease       LeaseRequest     → LeaseResponse
//	POST /fleet/heartbeat   HeartbeatRequest → HeartbeatResponse
//	POST /fleet/complete    CompleteRequest  → CompleteResponse
//	POST /fleet/leave       LeaveRequest     → LeaveResponse
//	GET  /fleet/job?id=ID                    → JobInfo
//
// Errors reuse the server's {"error": ..., "code": ...} envelope; code
// "lease_conflict" (409) marks settle races a retrying worker should drop,
// "unknown_worker" (409) tells an agent to re-register (the coordinator
// restarted or evicted it), and "bad_request" (400) marks malformed
// requests (e.g. a non-positive LeaseRequest.Max) the sender must fix, not
// retry.

// CodeUnknownWorker tags 409 replies for requests naming a worker id the
// registry does not know; agents respond by re-registering.
const CodeUnknownWorker = "unknown_worker"

// CodeBadRequest tags 400 replies for malformed requests — retrying the
// same payload can never succeed.
const CodeBadRequest = "bad_request"

// RegisterRequest announces a worker and its capabilities.
type RegisterRequest struct {
	// Name is the operator-facing worker name (e.g. its hostname); ids are
	// assigned by the coordinator, so names need not be unique.
	Name string `json:"name"`
	// Devices is how many candidates the worker trains concurrently.
	Devices int `json:"devices"`
	// Alpha is the worker's multi-device scaling exponent — capability
	// metadata the coordinator surfaces in the registry.
	Alpha float64 `json:"alpha"`
}

// RegisterResponse assigns the worker id and the protocol cadence.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is how long the coordinator waits for a heartbeat before
	// reclaiming the worker's leases.
	LeaseTTLMS float64 `json:"lease_ttl_ms"`
	// HeartbeatMS is the heartbeat period the worker should use.
	HeartbeatMS float64 `json:"heartbeat_ms"`
	// PollMS is the suggested idle poll period for /fleet/lease.
	PollMS float64 `json:"poll_ms"`
	// Seed is the coordinator's simulated-training seed: a SimExecutor
	// built on it reproduces the coordinator's quality surfaces exactly,
	// so results are identical no matter which worker trains a candidate.
	Seed int64 `json:"seed"`
}

// LeaseRequest polls for up to Max new leases. Max must be positive — a
// non-positive value is a protocol error (400, code "bad_request"); the Go
// client defaults it to 1.
//
// A speculative poll additionally carries Proposals — (job, arm, epoch)
// triples the worker pre-scored against its cached posterior surface — and
// PosteriorEpochs, the worker's last-seen epoch per job, which the
// coordinator diffs to decide which posterior deltas to attach to the
// response. A plain poll (both fields empty) is exactly the old protocol.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
	// Proposals are validated in order until Max leases are granted; each
	// either fast-path grants (epoch matched, arm free) or is skipped
	// (stale). Remaining capacity falls back to the coordinator's normal
	// pick path.
	Proposals []LeaseProposal `json:"proposals,omitempty"`
	// PosteriorEpochs maps job id → the epoch of the worker's cached
	// surface; the response carries deltas only for jobs whose epoch moved
	// (or that the worker has never seen).
	PosteriorEpochs map[string]uint64 `json:"posterior_epochs,omitempty"`
	// PosteriorVersion echoes the coordinator's global surface version
	// from the worker's last full posterior sync (LeaseResponse's field of
	// the same name). When it still matches, nothing anywhere has moved
	// and the coordinator skips the per-job epoch diff — the steady-state
	// fast path. Zero (a worker that never synced, or speculation off)
	// always triggers the full diff.
	PosteriorVersion uint64 `json:"posterior_version,omitempty"`
}

// LeaseProposal is one speculative lease ask: "grant me arm Arm of job Job,
// which I scored against the posterior surface stamped Epoch". Arm is the
// candidate's index in the job's (deterministically generated) candidate
// list — canonical on both sides, so validation is O(1).
type LeaseProposal struct {
	JobID string `json:"job_id"`
	Arm   int    `json:"arm"`
	Epoch uint64 `json:"epoch"`
}

// JobPosterior is one job's posterior surface on the wire: per-arm mean,
// std and (unhallucinated) UCB, stamped with the job's selection-index
// dirty epoch. Tried lists observed/retired arms (their UCB entries are
// zeroed — JSON cannot carry the NaN markers the in-process surface uses);
// Leased lists arms currently held by outstanding leases. Workers propose
// only arms in neither list. Done marks a job that will never train another
// candidate; its slices are omitted.
type JobPosterior struct {
	JobID  string    `json:"job_id"`
	Epoch  uint64    `json:"epoch"`
	Mu     []float64 `json:"mu,omitempty"`
	Sigma  []float64 `json:"sigma,omitempty"`
	UCB    []float64 `json:"ucb,omitempty"`
	Tried  []int     `json:"tried,omitempty"`
	Leased []int     `json:"leased,omitempty"`
	Done   bool      `json:"done,omitempty"`
}

// WireLease is one leased work item on the wire. The candidate is named,
// not embedded: workers rebuild the full candidate surface from the job's
// logged program (JobInfo), exactly like crash recovery does.
type WireLease struct {
	LeaseID   int    `json:"lease_id"`
	JobID     string `json:"job_id"`
	Candidate string `json:"candidate"`
	// Trace is the lease's trace ID, minted by the scheduler at pick time.
	// Workers carry it into their structured logs and onto the
	// X-Easeml-Trace header of the completion report, so one lease is
	// traceable end to end across processes.
	Trace string `json:"trace,omitempty"`
	// Span is the lease's root span ID, so the worker's run span parents
	// into the coordinator's span tree for the lease.
	Span string `json:"span,omitempty"`
}

// LeaseResponse returns the granted leases (possibly none) plus, for
// speculative polls, the posterior deltas for every job whose epoch moved
// past the worker's PosteriorEpochs — the resync half of the speculative
// protocol. A delta's Leased set already includes the leases granted by
// this very response, so the worker's next proposals never re-ask for them.
type LeaseResponse struct {
	Leases     []WireLease    `json:"leases"`
	Posteriors []JobPosterior `json:"posteriors,omitempty"`
	// PosteriorVersion is the coordinator's global surface version as of
	// this response's posterior diff; the worker echoes it in its next
	// LeaseRequest so an unchanged fleet costs one integer comparison
	// instead of a per-job epoch scan.
	PosteriorVersion uint64 `json:"posterior_version,omitempty"`
}

// HeartbeatRequest refreshes the worker's liveness and the TTL of the
// leases it is still executing.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseIDs []int  `json:"lease_ids,omitempty"`
}

// HeartbeatResponse echoes the subset of LeaseIDs still outstanding; a
// lease missing from KnownLeases was reclaimed (expired) and the worker
// should abort its run — a late result would only bounce off 409.
// Preempted lists leases reclaimed by priority preemption since the last
// heartbeat: the explicit abort signal, so agents can distinguish "your
// run was displaced by guaranteed work" from an expiry and kill the run
// without waiting to notice the missing KnownLeases entry.
type HeartbeatResponse struct {
	KnownLeases []int `json:"known_leases,omitempty"`
	Preempted   []int `json:"preempted,omitempty"`
}

// CompleteRequest reports the outcome of one leased run. A non-empty Error
// means the run failed: the coordinator releases the lease for retry, or
// abandons the candidate once it has failed MaxRetries times.
type CompleteRequest struct {
	WorkerID string  `json:"worker_id"`
	LeaseID  int     `json:"lease_id"`
	Accuracy float64 `json:"accuracy"`
	Cost     float64 `json:"cost"`
	Error    string  `json:"error,omitempty"`
	// Spans ships the worker-side spans of the lease's trace (the run
	// span, at minimum) back to the coordinator, which imports them into
	// its flight recorder so GET /admin/traces/{id} serves the whole
	// cross-process tree from one place.
	Spans []telemetry.SpanData `json:"spans,omitempty"`
}

// CompleteResponse reports how the lease settled. For speculative fleets
// it also carries the settled job's refreshed posterior: the settle itself
// bumped the job's epoch, so without this the reporting worker's very next
// proposal for the job would always be stale — one piggybacked delta saves
// a resync round trip.
type CompleteResponse struct {
	// Settled is "completed", "released" (failed, will retry) or
	// "abandoned" (failed MaxRetries times, candidate retired).
	Settled string `json:"settled"`
	// Posterior is the settled job's fresh surface (nil with speculation
	// disabled, in legacy-selection mode, or when the job is unknown).
	Posterior *JobPosterior `json:"posterior,omitempty"`
}

// LeaveRequest deregisters a worker gracefully: its outstanding leases are
// released (re-queued) immediately instead of waiting out the TTL.
type LeaveRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaveResponse reports how many leases the departure re-queued.
type LeaveResponse struct {
	Released int `json:"released"`
}

// JobInfo is the GET /fleet/job reply: the job's logged program, from
// which a worker regenerates the exact candidate list (same derivation as
// crash recovery), plus the expected candidate names as a cross-check.
type JobInfo struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	Program    string   `json:"program"`
	Candidates []string `json:"candidates"`
}
