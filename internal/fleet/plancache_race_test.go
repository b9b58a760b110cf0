package fleet

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/server"
	"repro/internal/templates"
)

// Submit (coordinator side) and the agent's per-lease job fetch (worker
// side) now share the process-wide plan cache. Hammer both concurrently
// under -race: many tenants submitting the same program while an agent
// resolves candidate grids for the resulting jobs.
func TestConcurrentSubmitAndAgentFetchSharePlanCache(t *testing.T) {
	dsl.ResetPlanCache()
	templates.ResetCandidateCache()
	sc := newTestScheduler(t)
	if _, err := sc.Submit("seed", tsProgram); err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(sc, CoordinatorConfig{
		LeaseTTL:          500 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		SweepInterval:     20 * time.Millisecond,
		DeadAfter:         2 * time.Second,
		PollInterval:      5 * time.Millisecond,
		Seed:              fleetSeed,
	})
	coord.Start()
	defer coord.Stop()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	var agentDone sync.WaitGroup
	agent, err := NewAgent(AgentConfig{
		Coordinator: srv.URL, Name: "cache-worker", Devices: 2,
		Executor:     NewSimExecutor(fleetSeed),
		PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	agentDone.Add(1)
	go func() { defer agentDone.Done(); _ = agent.Run(agentCtx) }()

	// Eight tenants race 40 submissions of one program against the agent's
	// job fetches.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sc.Submit("tenant", tsProgram); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Let the agent train across several of the new jobs (each job's first
	// lease forces a fetch+resolve of its candidate grid).
	deadline := time.After(10 * time.Second)
	for {
		trained := 0
		for _, job := range sc.Jobs() {
			st, err := sc.Status(job.ID)
			if err != nil {
				t.Fatal(err)
			}
			trained += st.Trained
		}
		if trained >= 12 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("agent trained only %d candidates in 10s", trained)
		case <-time.After(10 * time.Millisecond):
		}
	}
	stopAgent()
	agentDone.Wait()

	// One program everywhere: after the first parse, every Submit and
	// every agent fetch should have hit.
	prog := dsl.PlanCacheStats()
	if prog.Misses != 1 {
		t.Errorf("program cache misses = %d, want 1 (%+v)", prog.Misses, prog)
	}
	if hr := prog.HitRate(); hr <= 0.9 {
		t.Errorf("program cache hit rate %.2f, want > 0.90 (%+v)", hr, prog)
	}
	cands := templates.CandidateCacheStats()
	if hr := cands.HitRate(); hr <= 0.9 {
		t.Errorf("candidate cache hit rate %.2f, want > 0.90 (%+v)", hr, cands)
	}

	// A fetch that loses the race to register a job finds it already in
	// the executor's trainer: the trainer reports ErrAlreadyRegistered and
	// RegisterJob accepts the registration that won.
	x := NewSimExecutor(fleetSeed)
	job := sc.Jobs()[0]
	if err := x.trainer.Register(job.ID, job.Candidates); err != nil {
		t.Fatal(err)
	}
	if err := x.trainer.Register(job.ID, job.Candidates); !errors.Is(err, server.ErrAlreadyRegistered) {
		t.Fatalf("second trainer registration: %v, want ErrAlreadyRegistered", err)
	}
	if err := x.RegisterJob(job.ID, job.Candidates); err != nil {
		t.Fatalf("RegisterJob after a racing registration: %v", err)
	}
	if _, _, err := x.Execute(context.Background(), job.ID, job.Candidates[0]); err != nil {
		t.Fatalf("executing after a duplicate registration: %v", err)
	}
}
