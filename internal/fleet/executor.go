package fleet

import (
	"context"
	"errors"
	"sync"

	"repro/internal/server"
	"repro/internal/templates"
)

// Executor trains one leased candidate. It is the execution substrate every
// Agent runs leases through: the service's in-process workers use a
// TrainerExecutor, remote worker agents default to a SimExecutor (the
// trainsim substrate) and can substitute anything that can measure an
// accuracy and a cost — a real training harness, a container launcher, an
// RPC to an accelerator box. Implementations must be safe for concurrent
// use and must return errors, never panic: a panicking executor would take
// its whole worker down.
type Executor interface {
	// Execute trains cand for jobID and reports measured accuracy and
	// execution cost. ctx is cancelled when the lease is lost (expired,
	// coordinator gone) or the worker is shutting down; a run that cannot
	// observe ctx may simply finish and have its result dropped.
	Execute(ctx context.Context, jobID string, cand templates.Candidate) (accuracy, cost float64, err error)
}

// JobAware executors are told each job's candidate surface before its
// first Execute for that job. The SimExecutor builds its per-job simulator
// here; executors that only need the candidate itself can ignore the
// interface entirely.
type JobAware interface {
	RegisterJob(jobID string, cands []templates.Candidate) error
}

// TrainerExecutor adapts a server.Trainer to the Executor interface — the
// service's in-process workers execute through it, so they train on the
// scheduler's own trainer and its virtual-time pool accounting.
type TrainerExecutor struct {
	Trainer server.Trainer
}

// Execute implements Executor by delegating to the wrapped trainer (which
// has no context plumbing; in-process runs settle synchronously anyway).
func (x TrainerExecutor) Execute(_ context.Context, jobID string, cand templates.Candidate) (float64, float64, error) {
	return x.Trainer.Train(jobID, cand)
}

// SimExecutor is the default worker-side executor: the trainsim substrate
// rebuilt locally. Because simulated runs are deterministic pure functions
// of (seed, job, candidate list), a SimExecutor seeded like the
// coordinator produces bit-identical results to the coordinator's own
// trainer — which is what lets a fleet run converge to the same best
// models as a single-process run, no matter which worker trains what.
type SimExecutor struct {
	trainer *server.SimTrainer

	mu         sync.Mutex
	registered map[string]bool
}

// NewSimExecutor builds a SimExecutor on the given seed (must match the
// coordinator's; agents take it from RegisterResponse.Seed).
func NewSimExecutor(seed int64) *SimExecutor {
	return &SimExecutor{
		trainer:    server.NewSimTrainer(nil, seed),
		registered: make(map[string]bool),
	}
}

// RegisterJob implements JobAware: it builds the per-job simulator from
// the candidate list. Registering the same job again (an agent re-fetching
// job info after a reconnect) is a no-op.
func (x *SimExecutor) RegisterJob(jobID string, cands []templates.Candidate) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.registered[jobID] {
		return nil
	}
	if err := x.trainer.Register(jobID, cands); err != nil {
		// The underlying trainer is the source of truth; tolerate a
		// registration that raced a concurrent one.
		if errors.Is(err, server.ErrAlreadyRegistered) {
			x.registered[jobID] = true
			return nil
		}
		return err
	}
	x.registered[jobID] = true
	return nil
}

// Execute implements Executor on the local simulator.
func (x *SimExecutor) Execute(_ context.Context, jobID string, cand templates.Candidate) (float64, float64, error) {
	return x.trainer.Train(jobID, cand)
}
