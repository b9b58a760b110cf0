package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// The ingest workload: durable writes beside reads with the selection
// layer idle. 64 jobs of 8 tenants, each with a trained model from set-up,
// receive an open loop of feeds (1, 8 or 32 examples), refines, single
// infers and statuses at one fixed Poisson rate; nothing trains during the
// measured phase. A short closed-loop probe then measures the feed
// capacity at the in-flight cap, and the server is SIGKILLed and restarted
// on the same data directory.
const (
	ingestJobs      = 64
	ingestTenants   = 8
	ingestSeedFeed  = 8    // examples per job fed during set-up (refine targets)
	ingestRate      = 50.0 // requests per second; README.md places it against the measured knee
	ingestShareFeed = 0.35
	ingestShareRef  = 0.10
	ingestShareInf  = 0.40 // the rest are statuses
	ingestProbeFeed = 8    // examples per feed of the capacity probe
)

// ingestFeedSizes are the feed batch sizes in their exact shares (40% of
// feeds carry 1 example, 40% carry 8, 20% carry 32), so the median feed is
// an 8-example one on every seed.
var ingestFeedSizes = []int{1, 1, 8, 8, 32}

// ingestPrograms are the two schemas of the ingest population (input
// width, program).
var ingestPrograms = []struct {
	in      int
	program string
}{
	{4, "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"},
	{6, "{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}"},
}

type ingestState struct {
	mu       sync.Mutex
	ids      []string
	acked    map[string][]int        // job → acked example ids
	disabled map[string]map[int]bool // job → ids refined to disabled
	infers   []inferSeen
}

type inferSeen struct{ job, model string }

func (s *ingestState) ack(job string, ids []int) {
	s.mu.Lock()
	s.acked[job] = append(s.acked[job], ids...)
	s.mu.Unlock()
}

func example(rng *rand.Rand, in int) ([]float64, []float64) {
	x := make([]float64, in)
	for i := range x {
		x[i] = float64(rng.Intn(1000)) / 100
	}
	return x, []float64{float64(rng.Intn(2)), 1}
}

func runIngest(r *runner) (*outcome, error) {
	ctx := context.Background()
	// Admission control on, with no binding limits: every example pays its
	// AdmitOp and nothing is refused.
	quota, err := writeQuotaFile(r.dir)
	if err != nil {
		return nil, err
	}
	extra := []string{"-quota-config", quota}
	st := &ingestState{}
	populate := func(p *serverProc) error {
		st.ids = make([]string, ingestJobs)
		st.acked = map[string][]int{}
		st.disabled = map[string]map[int]bool{}
		cl := r.client(p)
		for i := range st.ids {
			resp, err := cl.Submit(ctx, fmt.Sprintf("tenant-%d", i%ingestTenants), ingestPrograms[i%2].program)
			if err != nil {
				return err
			}
			st.ids[i] = resp.ID
		}
		base := r.rng.Int63() // one source per job keeps the parallel feeds deterministic
		err := forEach(ingestJobs, cap(r.tr.slots), func(i int) error {
			rng := rand.New(rand.NewSource(base + int64(i)))
			in, out := make([][]float64, ingestSeedFeed), make([][]float64, ingestSeedFeed)
			for k := range in {
				in[k], out[k] = example(rng, ingestPrograms[i%2].in)
			}
			ids, err := cl.Feed(ctx, st.ids[i], in, out)
			st.ack(st.ids[i], ids)
			return err
		})
		if err != nil {
			return err
		}
		// One trained model per job, so infers have a model to serve.
		for pending := true; pending; {
			if _, err := cl.RunRounds(ctx, ingestJobs); err != nil {
				return err
			}
			pending = false
			for _, id := range st.ids {
				s, err := cl.Status(ctx, id)
				if err != nil {
					return err
				}
				if s.Best == nil {
					pending = true
					break
				}
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

	// The schedule: arrival times and request kinds come from the seed.
	rate := r.rate(ingestRate)
	n := int(rate * r.phaseLength().Seconds())
	at := arrivals(r.rng, n, r.phaseLength())
	type req struct {
		kind string
		job  int
		size int
		ex   int // refine target
	}
	var targets [][2]int // (job, example id) pairs from set-up, each refined at most once
	for j, id := range st.ids {
		for _, ex := range st.acked[id] {
			targets = append(targets, [2]int{j, ex})
		}
	}
	r.rng.Shuffle(len(targets), func(i, k int) { targets[i], targets[k] = targets[k], targets[i] })
	// Kinds and feed sizes are drawn as exact shares, shuffled, so every
	// seed offers the same mix.
	kinds := make([]string, n)
	for i := range kinds {
		switch u := (float64(i) + 0.5) / float64(n); {
		case u < ingestShareFeed:
			kinds[i] = "feed"
		case u < ingestShareFeed+ingestShareRef:
			kinds[i] = "refine"
		case u < ingestShareFeed+ingestShareRef+ingestShareInf:
			kinds[i] = "infer"
		default:
			kinds[i] = "status"
		}
	}
	r.rng.Shuffle(n, func(i, k int) { kinds[i], kinds[k] = kinds[k], kinds[i] })
	feeds := 0
	for _, k := range kinds {
		if k == "feed" {
			feeds++
		}
	}
	sizes := make([]int, feeds)
	for i := range sizes {
		sizes[i] = ingestFeedSizes[i*len(ingestFeedSizes)/feeds]
	}
	r.rng.Shuffle(feeds, func(i, k int) { sizes[i], sizes[k] = sizes[k], sizes[i] })
	reqs := make([]req, n)
	for i, k := range kinds {
		q := req{kind: k, job: r.rng.Intn(ingestJobs)}
		switch {
		case k == "feed":
			q.size, sizes = sizes[0], sizes[1:]
		case k == "refine" && len(targets) > 0:
			q.job, q.ex = targets[0][0], targets[0][1]
			targets = targets[1:]
		case k == "refine":
			q.kind = "status"
		}
		reqs[i] = q
	}
	feedRNG := rand.New(rand.NewSource(r.rng.Int63()))
	payloads := make([][2][][]float64, n)
	for i, q := range reqs {
		if q.kind == "feed" || q.kind == "infer" {
			size := max(q.size, 1)
			in, out := make([][]float64, size), make([][]float64, size)
			for k := range in {
				in[k], out[k] = example(feedRNG, ingestPrograms[q.job%2].in)
			}
			payloads[i] = [2][][]float64{in, out}
		}
	}
	r.out.offered = fmt.Sprintf("%.0f req/s Poisson, %d requests, mix feed %.2f refine %.2f infer %.2f status %.2f",
		rate, n, ingestShareFeed, ingestShareRef, ingestShareInf, 1-ingestShareFeed-ingestShareRef-ingestShareInf)

	r.resetCalls()
	ph, err := r.beginPhase(srv)
	if err != nil {
		return nil, err
	}
	cl := r.client(srv)
	end := r.openLoop(at, func(i int, due time.Time) {
		q, job := reqs[i], st.ids[reqs[i].job]
		switch q.kind {
		case "feed":
			_ = r.call("feed", 0, due, func() error {
				ids, err := cl.Feed(ctx, job, payloads[i][0], payloads[i][1])
				st.ack(job, ids)
				return err
			})
		case "refine":
			_ = r.call("refine", 0, due, func() error {
				err := cl.Refine(ctx, job, q.ex, false)
				if err == nil {
					st.mu.Lock()
					if st.disabled[job] == nil {
						st.disabled[job] = map[int]bool{}
					}
					st.disabled[job][q.ex] = true
					st.mu.Unlock()
				}
				return err
			})
		case "infer":
			_ = r.call("infer", 0, due, func() error {
				resp, err := cl.Infer(ctx, job, payloads[i][0][0])
				if err == nil {
					st.mu.Lock()
					st.infers = append(st.infers, inferSeen{job, resp.Model})
					st.mu.Unlock()
				}
				return err
			})
		default:
			_ = r.call("status", 0, due, func() error {
				_, err := cl.Status(ctx, job)
				return err
			})
		}
	})
	_, ok, _ := r.tally.totals()
	if err := r.endPhase(srv, ph, end, ok); err != nil {
		return nil, err
	}
	o := r.out
	feed, infer := r.tally.latencies("feed"), r.tally.latencies("infer")
	r.latencyMetrics(feed)
	addTail(o, "feed", feed)
	addTail(o, "infer", infer)

	// The open loop's throughput is its offered rate. The throughput the
	// server controls is the feed capacity: how many feeds it acks per
	// second with the in-flight cap always full.
	capacity := r.ingestProbe(ctx, cl, st, r.phaseLength()/4)
	o.e2e["ops_per_s"] = metric{capacity, "1/s"}
	o.add("feed_capacity_per_s", capacity, "1/s")
	sent, _, failed := r.tally.totals()
	o.attempted, o.failed = sent, failed

	srv, err = r.recover(srv, extra)
	if err != nil {
		return nil, err
	}
	if r.cfg.corrupt {
		st.acked[st.ids[0]] = st.acked[st.ids[0]][1:] // one acked example id dropped
	}
	r.ingestGate(ctx, srv, st)
	return o, nil
}

// ingestProbe keeps the transport's in-flight cap full of feeds of
// ingestProbeFeed examples for length and returns the feeds acked per
// second. Each worker draws its jobs and examples from its own sub-seed.
func (r *runner) ingestProbe(ctx context.Context, cl *client.Client, st *ingestState, length time.Duration) float64 {
	workers := cap(r.tr.slots)
	base := r.rng.Int63()
	var acked atomic.Int64
	start := time.Now()
	_ = forEach(workers, workers, func(w int) error {
		rng := rand.New(rand.NewSource(base + int64(w)))
		for time.Since(start) < length {
			j := rng.Intn(ingestJobs)
			in, out := make([][]float64, ingestProbeFeed), make([][]float64, ingestProbeFeed)
			for k := range in {
				in[k], out[k] = example(rng, ingestPrograms[j%2].in)
			}
			job := st.ids[j]
			if r.call("probe_feed", 0, time.Now(), func() error {
				ids, err := cl.Feed(ctx, job, in, out)
				st.ack(job, ids)
				return err
			}) == nil {
				acked.Add(1)
			}
		}
		return nil
	})
	return float64(acked.Load()) / time.Since(start).Seconds()
}

// ingestGate checks, on the restarted server, that every acked example id
// and refine state survived the SIGKILL and that every single infer named
// the model Status.Best reports.
func (r *runner) ingestGate(ctx context.Context, srv *serverProc, st *ingestState) {
	cl := r.client(srv)
	o := r.out
	best := map[string]string{}
	for _, job := range st.ids {
		s, err := cl.Status(ctx, job)
		if err != nil {
			o.gate("status %s after restart: %v", job, err)
			continue
		}
		ids := append([]int(nil), st.acked[job]...)
		sort.Ints(ids)
		for k := 1; k < len(ids); k++ {
			if ids[k] == ids[k-1] {
				o.gate("%s: example id %d acked twice", job, ids[k])
			}
		}
		if s.Examples != len(ids) {
			o.gate("%s: %d examples after restart, %d acked", job, s.Examples, len(ids))
		}
		if want := len(ids) - len(st.disabled[job]); s.Enabled != want {
			o.gate("%s: %d enabled after restart, want %d", job, s.Enabled, want)
		}
		// Re-applying the expected state is idempotent and fails for an id
		// the server does not have.
		for ex := range st.disabled[job] {
			if err := cl.Refine(ctx, job, ex, false); err != nil {
				o.gate("%s: refined example %d missing after restart: %v", job, ex, err)
			}
		}
		if len(ids) > 0 && !st.disabled[job][ids[len(ids)-1]] {
			if err := cl.Refine(ctx, job, ids[len(ids)-1], true); err != nil {
				o.gate("%s: last acked example %d missing after restart: %v", job, ids[len(ids)-1], err)
			}
		}
		if s.Best == nil {
			o.gate("%s: no best model after restart", job)
			continue
		}
		best[job] = s.Best.Name
	}
	for _, in := range st.infers {
		if in.model != best[in.job] {
			o.gate("%s: infer served %q, Status.Best is %q", in.job, in.model, best[in.job])
			return
		}
	}
}

// latencyMetrics records the end-to-end latency percentiles of the
// workload's headline op.
func (r *runner) latencyMetrics(lat []float64) {
	r.out.e2e["op_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
	r.out.e2e[tailE2E] = metric{percentile(lat, tailQ), "ms"}
	r.out.layer["loadgen.op_samples"] = float64(len(lat))
}

// addTail prints <name>_p50_ms and the highest of p99/p95/p90 that has at
// least ten samples beyond it, with the sample count.
func addTail(o *outcome, name string, lat []float64) {
	o.add(name+"_p50_ms", percentile(lat, 0.5), "ms")
	for _, q := range []int{99, 95, 90} {
		if float64(len(lat))*(1-float64(q)/100) >= 10 || q == 90 {
			o.add(fmt.Sprintf("%s_p%d_ms", name, q), percentile(lat, float64(q)/100), "ms")
			break
		}
	}
	o.add(name+"_samples", float64(len(lat)), "count")
}
