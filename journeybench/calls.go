package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/templates"
)

// acc is a concurrent sum/count accumulator.
type acc struct {
	mu  sync.Mutex
	n   int
	sum float64
}

func (a *acc) add(v float64) {
	a.mu.Lock()
	a.n++
	a.sum += v
	a.mu.Unlock()
}

func (a *acc) mean() float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return mean(a.sum, a.n)
}

func (a *acc) total() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum
}

func (a *acc) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

func (a *acc) reset() {
	a.mu.Lock()
	a.n, a.sum = 0, 0
	a.mu.Unlock()
}

// client returns an internal/client on the capped transport.
func (r *runner) client(p *serverProc) *client.Client {
	return client.New(p.base, client.WithHTTPClient(r.tr.client()), client.WithTimeout(0))
}

// call times one user request of kind k through an internal/client method:
// its latency from due (the time the schedule set) goes to the tally, its
// time inside the client method to client.<k>.rtt_ms_mean, and, when
// tracing, a client span tagged with the session.
func (r *runner) call(k string, session int64, due time.Time, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.tally.record(k, due, err)
	r.rtt(k).add(float64(end.Sub(start)) / 1e6)
	r.spans.add("client", k, start, end, session)
	return err
}

func (r *runner) rtt(k string) *acc {
	r.rttMu.Lock()
	defer r.rttMu.Unlock()
	a := r.clientRTT[k]
	if a == nil {
		a = &acc{}
		r.clientRTT[k] = a
	}
	return a
}

// resetCalls clears the per-op tallies at the start of a measured phase.
func (r *runner) resetCalls() {
	r.rttMu.Lock()
	r.clientRTT = map[string]*acc{}
	r.rttMu.Unlock()
	r.tally = newTally()
	r.exec.reset()
}

// timedExec is the Executor the runner supplies to its agents: it wraps
// the simulated trainer, optionally holds each lease for a fixed simulated
// training time, and times every call. It forwards RegisterJob so the
// inner SimExecutor builds its per-job simulators.
type timedExec struct {
	inner *fleet.SimExecutor
	hold  time.Duration
	r     *runner
}

func (x *timedExec) RegisterJob(jobID string, cands []templates.Candidate) error {
	return x.inner.RegisterJob(jobID, cands)
}

func (x *timedExec) Execute(ctx context.Context, jobID string, cand templates.Candidate) (float64, float64, error) {
	start := time.Now()
	if x.hold > 0 {
		t := time.NewTimer(x.hold)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
	accuracy, cost, err := x.inner.Execute(ctx, jobID, cand)
	end := time.Now()
	x.r.exec.add(float64(end.Sub(start)) / 1e6)
	x.r.spans.add("executor", jobID, start, end, 0)
	return accuracy, cost, err
}

// startAgents runs n fleet agents in-process against the server's fleet
// address, each with the given device count, all through the capped
// transport. stop cancels them and waits until every agent has left.
func (r *runner) startAgents(p *serverProc, n, devices int, hold time.Duration) (stop func(), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	r.devices = n * devices
	for i := 0; i < n; i++ {
		a, err := fleet.NewAgent(fleet.AgentConfig{
			Coordinator: p.fleet,
			Name:        "bench-agent",
			Devices:     devices,
			Executor:    &timedExec{inner: fleet.NewSimExecutor(1), hold: hold, r: r},
			HTTPClient:  r.tr.client(),
		})
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Run(ctx) // Run fails only when registration never succeeds; completions are counted instead
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}, nil
}

// forEach runs fn(i) for i in [0, n) on `workers` goroutines and returns
// the first error.
func forEach(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
