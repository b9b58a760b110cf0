package easeml

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
)

// The race-soak: eight user goroutines hammer every user-facing operation
// (Submit / Feed / Refine / Infer / Status) while the in-process workers
// and a remote fleet agent concurrently lease and settle work through the
// same coordinator and scheduler — the full three-way concurrency the locking
// discipline must survive. Run under -race (the dedicated CI job does, in
// its shortened -short variant); the assertions double as invariants: no
// candidate is recorded twice and no job over-trains, no matter how the
// in-process and the remote agent interleave.
func TestRaceSoakConcurrentService(t *testing.T) {
	soak := 1500 * time.Millisecond
	if testing.Short() {
		soak = 250 * time.Millisecond
	}

	svc := NewService(ServiceConfig{
		Seed:       7,
		Workers:    4,
		Fleet:      true,
		TrainDelay: 200 * time.Microsecond, // runs take wall time, so leases overlap
		Quotas: map[string]TenantQuota{
			"tenant-0": {Class: "guaranteed"},
			"tenant-1": {Class: "standard"},
			"tenant-2": {Class: "best-effort"},
			"tenant-3": {Class: "standard", RatePerSec: 50, Burst: 10}, // some 429s in the mix
		},
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Coordinator:  srv.URL,
		Name:         "soak-agent",
		Devices:      2,
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	agentCtx, stopAgent := context.WithCancel(context.Background())
	var agentDone sync.WaitGroup
	agentDone.Add(1)
	go func() {
		defer agentDone.Done()
		if err := agent.Run(agentCtx); err != nil {
			t.Errorf("agent: %v", err)
		}
	}()
	if err := svc.StartEngine(); err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		maxJobs    = 12
		program    = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	)
	var (
		jobsMu sync.Mutex
		jobIDs []string
	)
	randomJob := func(rng *rand.Rand) string {
		jobsMu.Lock()
		defer jobsMu.Unlock()
		if len(jobIDs) == 0 {
			return ""
		}
		return jobIDs[rng.Intn(len(jobIDs))]
	}

	deadline := time.Now().Add(soak)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			tenant := []string{"tenant-0", "tenant-1", "tenant-2", "tenant-3"}[g%4]
			for time.Now().Before(deadline) {
				switch rng.Intn(6) {
				case 0: // submit, bounded so the soak doesn't balloon
					jobsMu.Lock()
					room := len(jobIDs) < maxJobs
					jobsMu.Unlock()
					if !room {
						continue
					}
					job, err := svc.Submit(tenant, program)
					if err != nil {
						if errors.Is(err, admission.ErrQuotaExceeded) {
							continue // tenant-3's rate limit biting: expected
						}
						t.Errorf("submit: %v", err)
						return
					}
					jobsMu.Lock()
					jobIDs = append(jobIDs, job.Name)
					jobsMu.Unlock()
				case 1: // feed
					id := randomJob(rng)
					if id == "" {
						continue
					}
					if _, err := svc.Feed(id, []float64{1, 2, 3, 4}, []float64{0, 1}); err != nil &&
						!errors.Is(err, admission.ErrQuotaExceeded) {
						t.Errorf("feed: %v", err)
						return
					}
				case 2: // refine (example may not exist yet: tolerated)
					id := randomJob(rng)
					if id == "" {
						continue
					}
					_ = svc.Refine(id, 1+rng.Intn(3), rng.Intn(2) == 0)
				case 3: // infer (no model yet: tolerated)
					id := randomJob(rng)
					if id == "" {
						continue
					}
					_, _, _ = svc.Infer(id, []float64{1, 2, 3, 4})
				case 4, 5: // status
					id := randomJob(rng)
					if id == "" {
						continue
					}
					if _, err := svc.Status(id); err != nil {
						t.Errorf("status: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	stopAgent()
	agentDone.Wait()
	if err := svc.StopEngine(); err != nil {
		t.Fatal(err)
	}

	// Post-soak invariants: however the two agents raced, no
	// candidate was recorded twice and no job trained more than its
	// candidate list.
	jobsMu.Lock()
	ids := append([]string(nil), jobIDs...)
	jobsMu.Unlock()
	if len(ids) == 0 {
		t.Fatal("soak submitted no jobs")
	}
	totalTrained := 0
	for _, id := range ids {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool, len(st.Models))
		for _, m := range st.Models {
			if seen[m.Name] {
				t.Fatalf("job %s recorded candidate %s twice", id, m.Name)
			}
			seen[m.Name] = true
		}
		if st.Trained > st.NumCandidates {
			t.Fatalf("job %s trained %d of %d candidates", id, st.Trained, st.NumCandidates)
		}
		totalTrained += st.Trained
	}
	if totalTrained == 0 {
		t.Error("soak trained nothing; no agent ever completed a lease")
	}
}
