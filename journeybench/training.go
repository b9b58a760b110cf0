package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/easeml"
	"repro/internal/server"
)

// The training workload: the paper's model-selection loop on its own, a
// closed loop with fixed work. Two in-process fleet agents with the
// default instant simulated trainer and speculation on exhaust a fixed
// population of 35-arm image jobs from 8 tenants; there is no user ingest
// or serving traffic.
const (
	trainTenants       = 8
	trainJobsPerSecond = 10 // population size per measured second (at least 64 jobs)
	trainAgents        = 2
	trainDevices       = 2
	trainProgram       = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}" // 35 candidates
)

func trainJobs(phase time.Duration) int { return max(64, int(trainJobsPerSecond*phase.Seconds())) }

func runTraining(r *runner) (*outcome, error) {
	ctx := context.Background()
	jobs := trainJobs(r.phaseLength())
	names := make([]string, jobs)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", r.rng.Intn(trainTenants))
	}
	var ids []string
	arms := 0
	populate := func(p *serverProc) error {
		ids, arms = make([]string, jobs), 0
		cl := r.client(p)
		// Submission order fixes job ids, which the reference replays.
		for i, name := range names {
			resp, err := cl.Submit(ctx, name, trainProgram)
			if err != nil {
				return err
			}
			ids[i] = resp.ID
			arms += len(resp.Candidates)
		}
		return nil
	}
	srv, err := r.setup(nil, populate)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	r.out.offered = fmt.Sprintf("closed loop: %d jobs × 35 arms, %d agents × %d devices, instant executor", jobs, trainAgents, trainDevices)

	r.resetCalls()
	ph, err := r.beginPhase(srv)
	if err != nil {
		return nil, err
	}
	stop, err := r.startAgents(srv, trainAgents, trainDevices, 0)
	if err != nil {
		return nil, err
	}
	// A population that does not settle in time fails the gate below
	// rather than running past the benchmark's time limit.
	deadline := time.Now().Add(45 * time.Second)
	for r.tr.completes.Load() < int64(arms) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	end := time.Now()
	settled := int(r.tr.completes.Load())
	err = r.endPhase(srv, ph, end, settled)
	stop()
	if err != nil {
		return nil, err
	}
	o := r.out
	o.attempted, o.failed = arms, arms-min(settled, arms)
	wall := end.Sub(ph.start).Seconds()
	o.e2e["ops_per_s"] = metric{float64(settled) / wall, "1/s"}
	o.add("train_leases_per_s", float64(settled)/wall, "1/s")
	o.add("train_wall_s", wall, "s")
	// The workers are the coordinator's users here, and an op is one
	// settled lease: its /fleet/complete round trip, which settles the
	// lease and appends its model record to the WAL. Lease round trips
	// are left out: one can grant several leases or none, so pooling them
	// would make the percentiles track the mix of the two routes rather
	// than either's latency. They are reported per layer.
	r.latencyMetrics(ph.routes["complete"].rtts)

	srv, err = r.recover(srv, nil)
	if err != nil {
		return nil, err
	}

	statuses := make([]server.Status, jobs)
	cl := r.client(srv)
	for i, id := range ids {
		if statuses[i], err = cl.Status(ctx, id); err != nil {
			return nil, err
		}
	}
	regret := selectionRegret(statuses)
	o.add("selection_regret", regret, "ratio")
	o.layer["selection.regret"] = regret
	ref, err := referenceBest(names)
	if err != nil {
		return nil, err
	}
	if r.cfg.corrupt {
		ref[0].Accuracy = math.Nextafter(ref[0].Accuracy, 2) // one reference accuracy off by one ulp
	}
	for i, s := range statuses {
		if s.Trained != s.NumCandidates {
			o.gate("%s: %d of %d arms trained", s.ID, s.Trained, s.NumCandidates)
			continue
		}
		if s.Best == nil || s.Best.Name != ref[i].Name || s.Best.Accuracy != ref[i].Accuracy {
			o.gate("%s: best model %+v, in-process reference %+v", s.ID, s.Best, ref[i])
		}
	}
	return o, nil
}

// referenceBest trains the same population in-process to exhaustion
// (easeml.NewService with Seed 1 and RunRounds) and returns each job's
// best model.
func referenceBest(names []string) ([]struct {
	Name     string
	Accuracy float64
}, error) {
	svc := easeml.NewService(easeml.ServiceConfig{Seed: 1})
	defer svc.Close()
	ids := make([]string, len(names))
	for i, name := range names {
		job, err := svc.Submit(name, trainProgram)
		if err != nil {
			return nil, err
		}
		ids[i] = job.Name
	}
	for {
		n, err := svc.RunRounds(1 << 12)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	out := make([]struct {
		Name     string
		Accuracy float64
	}, len(ids))
	for i, id := range ids {
		s, err := svc.Status(id)
		if err != nil {
			return nil, err
		}
		if s.Best == nil || s.Trained != s.NumCandidates {
			return nil, fmt.Errorf("reference %s not exhausted: %d of %d", id, s.Trained, s.NumCandidates)
		}
		out[i].Name, out[i].Accuracy = s.Best.Name, s.Best.Accuracy
	}
	return out, nil
}

// selectionRegret is the mean over jobs of the normalized cumulative
// accuracy loss over global rounds (paper §3): at each global round t up
// to the last, a job loses (best reachable accuracy − its best accuracy so
// far), and the sum is divided by (rounds × best reachable accuracy).
func selectionRegret(statuses []server.Status) float64 {
	last := 0
	for _, s := range statuses {
		for _, m := range s.Models {
			last = max(last, m.Round)
		}
	}
	if last == 0 || len(statuses) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range statuses {
		ms := append(s.Models[:0:0], s.Models...)
		sort.Slice(ms, func(i, j int) bool { return ms[i].Round < ms[j].Round })
		star := 0.0
		for _, m := range ms {
			star = math.Max(star, m.Accuracy)
		}
		if star == 0 {
			continue
		}
		loss, best, prev := 0.0, 0.0, 0
		for _, m := range ms {
			loss += float64(m.Round-prev) * (star - best)
			prev = m.Round
			best = math.Max(best, m.Accuracy)
		}
		loss += float64(last-prev) * (star - best)
		total += loss / (float64(last) * star)
	}
	return total / float64(len(statuses))
}
