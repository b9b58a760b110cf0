package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
)

// The journey workload: user traffic and training contending. Tenant
// sessions arrive in an open loop; each submits one of four programs,
// feeds several batches, waits for its first model, then runs one
// infer/batch of 64 and one status. Two agents train with a fixed
// simulated training time per lease over a backlog of 35-arm jobs that
// outlasts the measured phase. Tenants fall into the three admission
// classes through a quota file with no binding limits.
const (
	journeyRate      = 6.0 // sessions per second
	journeyFeeds     = 3   // batches per session
	journeyFeedSize  = 8
	journeyBatch     = 64
	journeyHold      = 20 * time.Millisecond // simulated training time per lease
	journeyAgents    = 2
	journeyDevices   = 2
	journeyPoll      = 50 * time.Millisecond // first-model status poll period
	journeyBacklog   = 6                     // backlog jobs per measured second: more than the fleet trains
	journeyTenants   = 8
	journeyImageProg = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}"
)

// journeyPrograms are the four session programs (input width, program):
// the plan cache sees each miss once and then repeats.
var journeyPrograms = []struct {
	in      int
	program string
}{
	{4, "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"},
	{6, "{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}"},
	{8, "{input: {[Tensor[8]], [next]}, output: {[Tensor[2]], []}}"},
	{12, "{input: {[Tensor[12]], [next]}, output: {[Tensor[2]], []}}"},
}

// journeyClass is tenant k's admission class.
func journeyClass(k int) string {
	return []string{"guaranteed", "guaranteed", "standard", "standard", "standard", "best-effort", "best-effort", "best-effort"}[k]
}

func writeQuotaFile(dir string) (string, error) {
	tenants := map[string]map[string]string{}
	for k := 0; k < journeyTenants; k++ {
		tenants[fmt.Sprintf("tenant-%d", k)] = map[string]string{"class": journeyClass(k)}
	}
	raw, err := json.Marshal(map[string]any{"default_class": "standard", "tenants": tenants})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "quotas.json")
	return path, os.WriteFile(path, raw, 0o644)
}

type session struct {
	tenant     int
	prog       int
	feeds      [journeyFeeds][2][][]float64
	batch      [][]float64
	reached    bool
	outputs    int
	firstModel time.Duration
}

func runJourney(r *runner) (*outcome, error) {
	ctx := context.Background()
	quota, err := writeQuotaFile(r.dir)
	if err != nil {
		return nil, err
	}
	extra := []string{"-quota-config", quota}
	backlog := max(8, int(journeyBacklog*r.phaseLength().Seconds()))
	populate := func(p *serverProc) error {
		cl := r.client(p)
		for i := 0; i < backlog; i++ {
			if _, err := cl.Submit(ctx, fmt.Sprintf("tenant-%d", i%journeyTenants), journeyImageProg); err != nil {
				return err
			}
		}
		return nil
	}
	srv, err := r.setup(extra, populate)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	rate := r.rate(journeyRate)
	n := int(rate * r.phaseLength().Seconds())
	at := arrivals(r.rng, n, r.phaseLength())
	sessions := make([]*session, n)
	for i := range sessions {
		s := &session{tenant: r.rng.Intn(journeyTenants), prog: r.rng.Intn(len(journeyPrograms))}
		w := journeyPrograms[s.prog].in
		for f := range s.feeds {
			in, out := make([][]float64, journeyFeedSize), make([][]float64, journeyFeedSize)
			for k := range in {
				in[k], out[k] = example(r.rng, w)
			}
			s.feeds[f] = [2][][]float64{in, out}
		}
		s.batch = make([][]float64, journeyBatch)
		for k := range s.batch {
			s.batch[k], _ = example(r.rng, w)
		}
		sessions[i] = s
	}
	r.out.offered = fmt.Sprintf("%.1f sessions/s Poisson, %d sessions; backlog %d jobs × 35 arms; %d agents × %d devices, %v per lease",
		rate, n, backlog, journeyAgents, journeyDevices, journeyHold)

	r.resetCalls()
	ph, err := r.beginPhase(srv)
	if err != nil {
		return nil, err
	}
	stop, err := r.startAgents(srv, journeyAgents, journeyDevices, journeyHold)
	if err != nil {
		return nil, err
	}
	cl := r.client(srv)
	end := r.openLoop(at, func(i int, due time.Time) {
		r.runSession(ctx, cl, int64(i+1), due, sessions[i])
	})
	settled := r.tr.completes.Load()
	execMS := r.exec.total()
	err = r.endPhase(srv, ph, end, r.userOps())
	stop()
	if err != nil {
		return nil, err
	}
	o := r.out
	sent, _, failed := r.tally.totals()
	o.attempted, o.failed = sent, failed
	wall := end.Sub(ph.start).Seconds()
	// The sessions arrive at a fixed rate, so their throughput is the
	// offered load. The throughput the server controls is the backlogged
	// fleet's: leases settled per second while user traffic contends.
	o.e2e["ops_per_s"] = metric{float64(settled) / wall, "1/s"}
	o.add("fleet_leases_per_s", float64(settled)/wall, "1/s")
	// The headline op is the feed: it shares the WAL and the locks with the
	// pick path here.
	r.latencyMetrics(r.tally.latencies("feed"))
	addTail(o, "feed", r.tally.latencies("feed"))
	addTail(o, "infer_batch", r.tally.latencies("infer_batch"))
	addTail(o, "submit", r.tally.latencies("submit"))
	var first []float64
	for _, s := range sessions {
		if s.reached {
			first = append(first, s.firstModel.Seconds())
		}
	}
	o.add("first_model_p50_s", percentile(first, 0.5), "s")
	o.add("first_model_p90_s", percentile(first, 0.9), "s")
	o.add("fleet_busy_ratio", execMS/1000/(float64(r.devices)*wall), "ratio")
	o.add("sessions_per_s", float64(len(first))/wall, "1/s")

	if r.cfg.corrupt {
		sessions[0].outputs++ // one batch output count off
	}
	for i, s := range sessions {
		if !s.reached {
			o.gate("session %d never reached a model", i+1)
		} else if s.outputs != journeyBatch {
			o.gate("session %d: infer/batch returned %d outputs, want %d", i+1, s.outputs, journeyBatch)
		}
	}
	if e := r.tr.serverErrors.Load(); e > 0 {
		o.gate("%d responses were 5xx", e)
	}
	return o, nil
}

// runSession is one tenant session, each step due when the previous one
// finished.
func (r *runner) runSession(ctx context.Context, cl *client.Client, id int64, due time.Time, s *session) {
	name := fmt.Sprintf("tenant-%d", s.tenant)
	var job string
	if r.call("submit", id, due, func() error {
		resp, err := cl.Submit(ctx, name, journeyPrograms[s.prog].program)
		job = resp.ID
		return err
	}) != nil {
		return
	}
	acked := time.Now()
	for f := range s.feeds {
		if r.call("feed", id, time.Now(), func() error {
			_, err := cl.Feed(ctx, job, s.feeds[f][0], s.feeds[f][1])
			return err
		}) != nil {
			return
		}
	}
	deadline := acked.Add(30 * time.Second) // a session past it fails the gate
	for {
		var hasModel bool
		if r.call("poll", id, time.Now(), func() error {
			st, err := cl.Status(ctx, job)
			hasModel = st.Best != nil
			return err
		}) != nil {
			return
		}
		if hasModel {
			break
		}
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(journeyPoll)
	}
	if r.call("infer_batch", id, time.Now(), func() error {
		resp, err := cl.InferBatch(ctx, job, s.batch)
		s.outputs = len(resp.Outputs)
		return err
	}) != nil {
		return
	}
	s.firstModel = time.Since(acked)
	s.reached = true
	_ = r.call("status", id, time.Now(), func() error {
		_, err := cl.Status(ctx, job)
		return err
	})
}

// userOps counts the succeeded session requests; first-model status polls
// are excluded, since their number depends on how long training takes.
func (r *runner) userOps() int {
	ok := 0
	for k, ks := range r.tally.counts() {
		if k != "poll" {
			ok += ks.Succeeded
		}
	}
	return ok
}
