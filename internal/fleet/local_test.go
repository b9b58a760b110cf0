package fleet

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/templates"
)

// In-process agents: a Coordinator's LocalAgent reaches it by direct method
// calls. These tests drive the scheduler's whole lease cycle through that
// transport — exhaustion, stop, snapshot/restore, failing executors — the
// behaviours the service's in-process workers rely on.

const imgProgram = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}" // 35 candidates

// newLocalScheduler builds a scheduler on a 24-GPU α=0.35 pool, accounted
// on 8 devices, with jobs alternating the image and time-series programs.
// It returns the scheduler and the total candidate count.
func newLocalScheduler(t testing.TB, seed int64, jobs int, delay time.Duration) (*server.Scheduler, int) {
	t.Helper()
	trainer := server.NewSimTrainer(cluster.NewPool(24, 0.35), seed)
	trainer.Devices = 8
	trainer.Delay = delay
	sc := server.NewScheduler(trainer, nil, "")
	total := 0
	for i := 0; i < jobs; i++ {
		prog := imgProgram
		if i%2 == 1 {
			prog = tsProgram
		}
		job, err := sc.Submit(fmt.Sprintf("job-%d", i), prog)
		if err != nil {
			t.Fatal(err)
		}
		total += len(job.Candidates)
	}
	return sc, total
}

// localAgent is an in-process agent and its coordinator; stop cancels the
// current run and waits until the agent has left the fleet.
type localAgent struct {
	*Agent
	coord  *Coordinator
	cancel context.CancelFunc
	done   chan error
}

func startLocal(sc *server.Scheduler, cfg AgentConfig) *localAgent {
	if cfg.Executor == nil {
		cfg.Executor = TrainerExecutor{Trainer: sc.Trainer()}
	}
	cfg.PollInterval = 5 * time.Millisecond
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed})
	a := &localAgent{Agent: coord.LocalAgent(cfg), coord: coord}
	a.start()
	return a
}

// start runs the agent in the background until stop.
func (a *localAgent) start() {
	ctx, cancel := context.WithCancel(context.Background())
	a.cancel, a.done = cancel, make(chan error, 1)
	go func() { a.done <- a.Run(ctx) }()
}

func (a *localAgent) stop(t testing.TB) {
	t.Helper()
	a.cancel()
	if err := <-a.done; err != nil {
		t.Fatal(err)
	}
}

// drain waits until the agent has joined the fleet and sc has nothing left
// to train, then stops the agent. It fails the test if the drain does not
// finish.
func (a *localAgent) drain(t testing.TB, sc *server.Scheduler) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); a.coord.FleetStatus().Alive == 0 || !sc.Idle(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			a.stop(t)
			t.Fatalf("in-process agent did not drain: %d rounds, %d leases in flight", sc.Rounds(), sc.InFlight())
		}
	}
	a.stop(t)
}

// drainLocal runs an in-process agent until sc has nothing left to train,
// then stops it.
func drainLocal(t testing.TB, sc *server.Scheduler, cfg AgentConfig) *localAgent {
	t.Helper()
	a := startLocal(sc, cfg)
	a.drain(t, sc)
	return a
}

func TestLocalAgentExhaustsAllCandidatesExactlyOnce(t *testing.T) {
	sc, total := newLocalScheduler(t, 42, 4, 0)
	a := drainLocal(t, sc, AgentConfig{Name: "local", Devices: 8})
	if got := sc.Rounds(); got != total {
		t.Errorf("completed %d rounds, want %d", got, total)
	}
	if sc.InFlight() != 0 {
		t.Errorf("%d leases still outstanding after drain", sc.InFlight())
	}
	if got := a.Completed(); got != int64(total) {
		t.Errorf("agent completed %d runs, want %d", got, total)
	}
	// Exactly-once: every job's model records are unique and complete.
	for _, job := range sc.Jobs() {
		st, err := sc.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trained != st.NumCandidates {
			t.Errorf("job %s trained %d of %d", job.ID, st.Trained, st.NumCandidates)
		}
		seen := map[string]bool{}
		for _, m := range st.Models {
			if seen[m.Name] {
				t.Errorf("job %s trained %q twice", job.ID, m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// A drained agent can run again: nothing to train, a clean exit, and no
// round run twice.
func TestLocalAgentRerunAfterDrain(t *testing.T) {
	sc, total := newLocalScheduler(t, 42, 2, 0)
	a := drainLocal(t, sc, AgentConfig{Name: "local", Devices: 4})
	a.start()
	a.drain(t, sc)
	if sc.Rounds() != total {
		t.Errorf("second run changed rounds to %d, want %d", sc.Rounds(), total)
	}
	if got := a.Completed(); got != int64(total) {
		t.Errorf("agent completed %d runs over both runs, want %d", got, total)
	}
}

// The coordinator's registry follows the agent's whole lifecycle — it
// registers, completes every lease it is granted, and leaves — and the
// pool accounts its 8 devices as overlapping in virtual time.
func TestLocalAgentLifecycleAndVirtualTime(t *testing.T) {
	pool := cluster.NewPool(24, 0.35)
	trainer := server.NewSimTrainer(pool, 42)
	trainer.Devices = 8
	sc := server.NewScheduler(trainer, nil, "")
	job, err := sc.Submit("a", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	a := drainLocal(t, sc, AgentConfig{Name: "local", Devices: 8})
	fs := a.coord.FleetStatus()
	if len(fs.Workers) != 1 {
		t.Fatalf("registry holds %d workers, want 1", len(fs.Workers))
	}
	w := fs.Workers[0]
	if w.ID != a.WorkerID() || w.State != "left" || w.InFlight != 0 {
		t.Errorf("worker %+v, want %s left with nothing in flight", w, a.WorkerID())
	}
	if n := int64(len(job.Candidates)); w.Completed != n || a.Completed() != n {
		t.Errorf("registry counts %d completes, agent %d, want %d", w.Completed, a.Completed(), n)
	}
	// Multi-device accounting: 8 devices overlap, so the makespan must beat
	// the serialized single-device baseline on a pool that scales sublinearly.
	makespan, baseline := pool.Makespan(), pool.SingleDeviceTime()
	if makespan <= 0 || baseline <= 0 {
		t.Fatalf("virtual times %g / %g", makespan, baseline)
	}
	// The exact figure depends on the nondeterministic completion order
	// (which shapes later picks), so assert with margin.
	if speedup := baseline / makespan; speedup < 1.8 {
		t.Errorf("virtual-time speedup %.2fx, want ≥1.8x at 8 workers on a 24-GPU α=0.35 pool", speedup)
	}
}

func TestLocalAgentMatchesSerialBestRecords(t *testing.T) {
	serial, _ := newLocalScheduler(t, 7, 3, 0)
	serial.Trainer().(*server.SimTrainer).Devices = 0
	if _, err := serial.RunRounds(1 << 20); err != nil {
		t.Fatal(err)
	}
	parallel, _ := newLocalScheduler(t, 7, 3, 0)
	drainLocal(t, parallel, AgentConfig{Name: "local", Devices: 8})
	for _, job := range serial.Jobs() {
		a, err := serial.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if a.Best == nil || b.Best == nil {
			t.Fatalf("job %s missing best: %v vs %v", job.ID, a.Best, b.Best)
		}
		if a.Best.Name != b.Best.Name || a.Best.Accuracy != b.Best.Accuracy || a.Best.Cost != b.Best.Cost {
			t.Errorf("job %s best diverged: serial %+v vs in-process %+v", job.ID, *a.Best, *b.Best)
		}
	}
}

func TestLocalAgentSnapshotRestoreMidFlight(t *testing.T) {
	sc, total := newLocalScheduler(t, 42, 3, time.Millisecond)
	a := startLocal(sc, AgentConfig{Name: "local", Devices: 8})
	for deadline := time.Now().Add(5 * time.Second); sc.Rounds() < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	// Snapshot while runs are mid-flight: the snapshot must only contain
	// fully completed rounds and be replayable.
	var buf bytes.Buffer
	if err := sc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snapRounds := sc.Rounds()
	a.stop(t)
	if sc.InFlight() != 0 {
		t.Errorf("%d leases still outstanding after the agent left", sc.InFlight())
	}

	fresh, _ := newLocalScheduler(t, 42, 3, 0)
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.InFlight() != 0 {
		t.Errorf("fresh scheduler has %d leases", fresh.InFlight())
	}
	restored := fresh.Rounds()
	if restored < snapRounds-8 || restored > snapRounds {
		t.Errorf("restored %d rounds from a snapshot taken at ~%d", restored, snapRounds)
	}
	// Finish on the restored scheduler: completed work is not retrained.
	b := drainLocal(t, fresh, AgentConfig{Name: "local", Devices: 8})
	if fresh.Rounds() != total {
		t.Errorf("restored run finished at %d rounds, want %d", fresh.Rounds(), total)
	}
	if got := int(b.Completed()); got != total-restored {
		t.Errorf("fresh agent trained %d, want %d (the un-snapshotted remainder)", got, total-restored)
	}
}

// flakyExecutor fails its first budget Execute calls, then delegates.
type flakyExecutor struct {
	inner  Executor
	calls  atomic.Int64
	budget int64
}

func (f *flakyExecutor) Execute(ctx context.Context, jobID string, c templates.Candidate) (float64, float64, error) {
	if f.calls.Add(1) <= f.budget {
		return 0, 0, fmt.Errorf("flaky: injected failure for %s/%s", jobID, c.Name())
	}
	return f.inner.Execute(ctx, jobID, c)
}

func TestLocalAgentSurvivesExecutorErrors(t *testing.T) {
	sc, total := newLocalScheduler(t, 42, 2, 0)
	flaky := &flakyExecutor{inner: TrainerExecutor{Trainer: sc.Trainer()}, budget: 5}
	a := drainLocal(t, sc, AgentConfig{Name: "local", Devices: 4, Executor: flaky})
	if a.Failed() != 5 {
		t.Errorf("agent recorded %d failed runs, want 5", a.Failed())
	}
	// Each failure either released the lease for retry or (at MaxRetries on
	// one arm) abandoned the candidate; nothing else is lost.
	abandoned := 0
	for _, job := range sc.Jobs() {
		st, err := sc.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		abandoned += len(st.Abandoned)
	}
	if got := sc.Rounds() + abandoned; got != total {
		t.Errorf("rounds %d + abandoned %d = %d, want %d", sc.Rounds(), abandoned, got, total)
	}
}

// brokenExecutor permanently fails one candidate by name.
type brokenExecutor struct {
	inner  Executor
	broken string
}

func (b *brokenExecutor) Execute(ctx context.Context, jobID string, c templates.Candidate) (float64, float64, error) {
	if c.Name() == b.broken {
		return 0, 0, fmt.Errorf("broken: %s never trains", b.broken)
	}
	return b.inner.Execute(ctx, jobID, c)
}

// A candidate that always fails must not livelock the workers: after
// MaxRetries (3 by default) the coordinator abandons it — retired from
// selection with no fabricated observation — and the drain finishes
// without it.
func TestLocalAgentAbandonsPermanentlyFailingCandidate(t *testing.T) {
	sc, total := newLocalScheduler(t, 42, 1, 0)
	broken := sc.Jobs()[0].Candidates[0].Name()
	a := drainLocal(t, sc, AgentConfig{Name: "local", Devices: 4,
		Executor: &brokenExecutor{inner: TrainerExecutor{Trainer: sc.Trainer()}, broken: broken}})
	if sc.Rounds() != total-1 {
		t.Fatalf("finished at %d rounds, want %d (all but the broken candidate)", sc.Rounds(), total-1)
	}
	if a.Failed() != 3 {
		t.Errorf("failed runs %d, want exactly MaxRetries=3", a.Failed())
	}
	st, err := sc.Status(sc.Jobs()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Abandoned) != 1 || st.Abandoned[0] != broken {
		t.Errorf("abandoned %v, want [%s]", st.Abandoned, broken)
	}
	for _, rec := range st.Models {
		if rec.Name == broken {
			t.Errorf("abandoned candidate %q has a model record: %+v", broken, rec)
		}
	}
	if st.Trained != st.NumCandidates-1 {
		t.Errorf("trained %d of %d, want all but the broken one", st.Trained, st.NumCandidates)
	}
	if st.Best == nil || st.Best.Name == broken {
		t.Errorf("best %+v", st.Best)
	}
}
