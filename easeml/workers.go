package easeml

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/templates"
)

// localPollInterval is the in-process workers' base idle poll period. An
// idle agent backs off to 16× it, so a job submitted over HTTP is picked
// up within ~80ms; Service.Submit wakes the agent at once.
const localPollInterval = 5 * time.Millisecond

// errNoWorkers is returned by the worker controls of a service built
// without ServiceConfig.Workers.
var errNoWorkers = errors.New("easeml: service has no in-process workers (set ServiceConfig.Workers)")

// localWorkers is a service's in-process workers: one fleet Agent with
// Devices = ServiceConfig.Workers that reaches the coordinator by direct
// calls and trains on the scheduler's own trainer, so the pool's
// virtual-time accounting sees every run. It implements
// server.EngineControl for /admin/start|stop and the metrics block.
type localWorkers struct {
	agent   *fleet.Agent
	devices int
	pool    *cluster.Pool
	busy    atomic.Int64 // nanoseconds spent training, summed over runs

	mu      sync.Mutex
	cancel  context.CancelFunc // nil while stopped
	done    chan struct{}      // closed when the current run has ended
	started time.Time
	elapsed time.Duration // summed over finished runs
}

func newLocalWorkers(coord *fleet.Coordinator, cfg fleet.AgentConfig, trainer server.Trainer, pool *cluster.Pool) *localWorkers {
	w := &localWorkers{devices: cfg.Devices, pool: pool}
	cfg.Executor = busyExecutor{fleet.TrainerExecutor{Trainer: trainer}, &w.busy}
	w.agent = coord.LocalAgent(cfg)
	return w
}

// busyExecutor runs leases on the scheduler's trainer and adds the wall
// time spent training to busy, for the utilization figure.
type busyExecutor struct {
	fleet.TrainerExecutor
	busy *atomic.Int64
}

func (x busyExecutor) Execute(ctx context.Context, jobID string, cand templates.Candidate) (float64, float64, error) {
	defer func(t0 time.Time) { x.busy.Add(int64(time.Since(t0))) }(time.Now())
	return x.TrainerExecutor.Execute(ctx, jobID, cand)
}

// start runs the agent in the background and returns a channel that is
// closed when this run ends. It errors when the workers are running.
func (w *localWorkers) start() (<-chan struct{}, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cancel != nil {
		return nil, errors.New("easeml: in-process workers already running")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w.cancel, w.done, w.started = cancel, done, time.Now()
	go func() {
		_ = w.agent.Run(ctx) // an in-process registration cannot fail
		w.mu.Lock()
		w.elapsed += time.Since(w.started)
		w.cancel = nil
		w.mu.Unlock()
		close(done)
	}()
	return done, nil
}

// Start implements server.EngineControl.
func (w *localWorkers) Start() error {
	_, err := w.start()
	return err
}

// Stop implements server.EngineControl: it cancels the agent — runs in
// progress are dropped — and waits until it has left the fleet, its leases
// handed back for re-selection. It errors when the workers are stopped.
func (w *localWorkers) Stop() error {
	w.mu.Lock()
	cancel, done := w.cancel, w.done
	w.mu.Unlock()
	if cancel == nil {
		return errors.New("easeml: in-process workers not running")
	}
	cancel()
	<-done
	return nil
}

// usage returns the time spent training and the time the workers have
// been running, both summed over all runs, and whether they run now.
func (w *localWorkers) usage() (busy, elapsed time.Duration, running bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	elapsed, running = w.elapsed, w.cancel != nil
	if running {
		elapsed += time.Since(w.started)
	}
	return time.Duration(w.busy.Load()), elapsed, running
}

// utilization is the mean busy fraction of devices over elapsed.
func utilization(busy, elapsed time.Duration, devices int) float64 {
	if elapsed <= 0 || devices <= 0 {
		return 0
	}
	return float64(busy) / (float64(elapsed) * float64(devices))
}

// Status implements server.EngineControl: the worker counters plus the
// pool's virtual-time accounting.
func (w *localWorkers) Status() server.EngineStatus {
	busy, elapsed, running := w.usage()
	st := server.EngineStatus{
		Running:             running,
		Workers:             w.devices,
		Completed:           w.agent.Completed(),
		Errors:              w.agent.Failed(),
		Utilization:         utilization(busy, elapsed, w.devices),
		VirtualMakespan:     w.pool.Makespan(),
		VirtualSingleDevice: w.pool.SingleDeviceTime(),
	}
	if st.VirtualMakespan > 0 {
		st.VirtualSpeedup = st.VirtualSingleDevice / st.VirtualMakespan
	}
	return st
}

// StartEngine starts the in-process workers in the background: they lease
// work from the fleet coordinator and keep their device slice busy until
// StopEngine. It errors when the service was built without Workers or the
// workers are already running.
func (s *Service) StartEngine() error {
	if s.local == nil {
		return errNoWorkers
	}
	return s.local.Start()
}

// StopEngine stops the in-process workers: runs in progress are dropped
// and their leases handed back for re-selection, and it returns once the
// workers have left the fleet. It errors when they are not running.
func (s *Service) StopEngine() error {
	if s.local == nil {
		return errNoWorkers
	}
	return s.local.Stop()
}

// EngineMetrics snapshots the in-process worker counters and the pool's
// virtual-time accounting; ok is false when the service has no workers.
func (s *Service) EngineMetrics() (server.EngineStatus, bool) {
	if s.local == nil {
		return server.EngineStatus{}, false
	}
	return s.local.Status(), true
}

// VirtualTimes reports the pool's virtual-time accounting: the makespan of
// everything trained so far and what the serialized single-device strategy
// would have taken for the same runs (§5.3.2's comparison).
func (s *Service) VirtualTimes() (makespan, singleDevice float64) {
	return s.pool.Makespan(), s.pool.SingleDeviceTime()
}

// EngineRunSummary reports one DrainEngine batch run.
type EngineRunSummary struct {
	Rounds       int64         // trainings completed by this drain
	Wall         time.Duration // wall-clock duration of the drain
	Makespan     float64       // virtual multi-device completion time (all runs so far)
	SingleDevice float64       // virtual serialized single-device time for the same runs
	Speedup      float64       // SingleDevice / Makespan
	Utilization  float64       // mean worker busy fraction
}

// DrainEngine runs the in-process workers until nothing is left to train
// — no lease outstanding anywhere and no job with a selectable candidate —
// then stops them and returns the makespan-vs-serialized summary (batch
// mode: examples and benchmarks). It errors when the service has no
// workers or they are already running, and when the drain is interrupted
// (ctx cancelled, or StopEngine called) before it could see the work run
// out: a partial drain never looks like a complete one.
func (s *Service) DrainEngine(ctx context.Context) (EngineRunSummary, error) {
	if s.local == nil {
		return EngineRunSummary{}, errNoWorkers
	}
	completed0 := s.local.agent.Completed()
	busy0, elapsed0, _ := s.local.usage()
	start := time.Now()
	done, err := s.local.start()
	if err != nil {
		return EngineRunSummary{}, err
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if err := ctx.Err(); err != nil {
			_ = s.local.Stop()
			return EngineRunSummary{}, fmt.Errorf("easeml: drain interrupted: %w", err)
		}
		if s.sched.Idle() {
			break
		}
		select {
		case <-done:
			return EngineRunSummary{}, errors.New("easeml: drain interrupted: workers stopped before the work ran out")
		case <-ctx.Done():
		case <-tick.C:
		}
	}
	if err := s.local.Stop(); err != nil {
		return EngineRunSummary{}, fmt.Errorf("easeml: drain interrupted: %w", err)
	}
	busy, elapsed, _ := s.local.usage()
	makespan, single := s.VirtualTimes()
	sum := EngineRunSummary{
		Rounds:       s.local.agent.Completed() - completed0,
		Wall:         time.Since(start),
		Makespan:     makespan,
		SingleDevice: single,
		Utilization:  utilization(busy-busy0, elapsed-elapsed0, s.local.devices),
	}
	if makespan > 0 {
		sum.Speedup = single / makespan
	}
	return sum, nil
}
