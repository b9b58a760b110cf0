// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation section (§5). Each benchmark runs a
// reduced-repetition version of the corresponding experiment (wall-clock
// budget: ~seconds per figure) and reports the headline quantities as custom
// metrics, so `go test -bench=. -benchmem` regenerates the whole evaluation:
//
//	Figure  8 — dataset statistics table
//	Figure  9 — end-to-end vs MOSTCITED/MOSTRECENT (+speedup metric)
//	Figure 10 — cost-oblivious multi-tenant comparison
//	Figure 11 — cost-aware multi-tenant comparison
//	Figure 12 — model-correlation / noise grid
//	Figure 13 — cost-awareness lesion
//	Figure 14 — kernel training-set size
//	Figure 15 — hybrid lesion (+crossover metric)
//
// cmd/experiments prints the corresponding full tables.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/easeml"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dsl"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/server"
)

// benchCfg trades repetitions for benchmark wall-clock; cmd/experiments
// runs the full protocol.
var benchCfg = experiments.FigureConfig{RunsSmall: 10, RunsLarge: 2, TestUsers: 10, Seed: 1}

func finalAvg(r experiments.Result, series int) float64 {
	s := r.Series[series]
	return s.Avg[len(s.Avg)-1]
}

// BenchmarkEngine pits the service's in-process workers (multi-device)
// against the serialized single-device strategy on the same job set and
// seed: per worker count it reports the virtual-time makespan speedup (the
// §5.3.2 strategy comparison on an α=0.35 pool) and the wall-clock speedup
// (each simulated training sleeps TrainDelay, so worker concurrency is
// real). Final best models must be identical between the two runs — the
// workers change the schedule, never the answers.
func BenchmarkEngine(b *testing.B) {
	const (
		gpus       = 24
		alpha      = 0.35
		seed       = 11
		trainDelay = 200 * time.Microsecond
	)
	jobs := []string{
		"{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[3]], []}}",
		"{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}",
		"{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}",
	}
	submitAll := func(svc *easeml.Service) []string {
		ids := make([]string, len(jobs))
		for i, prog := range jobs {
			job, err := svc.Submit(fmt.Sprintf("bench-%d", i), prog)
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = job.Name
		}
		return ids
	}
	for _, workers := range []int{4, 8, 24} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var serialWall, engineWall time.Duration
			var virtualSpeedup, utilization float64
			for i := 0; i < b.N; i++ {
				serial := easeml.NewService(easeml.ServiceConfig{
					GPUs: gpus, Seed: seed, Alpha: alpha, TrainDelay: trainDelay,
				})
				serialIDs := submitAll(serial)
				t0 := time.Now()
				if _, err := serial.RunRounds(1 << 20); err != nil {
					b.Fatal(err)
				}
				serialWall += time.Since(t0)

				eng := easeml.NewService(easeml.ServiceConfig{
					GPUs: gpus, Seed: seed, Alpha: alpha, Workers: workers, TrainDelay: trainDelay,
				})
				engIDs := submitAll(eng)
				sum, err := eng.DrainEngine(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				engineWall += sum.Wall
				virtualSpeedup = sum.Speedup
				utilization = sum.Utilization
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}

				// The workers must not change the answers.
				for j := range serialIDs {
					sa, err := serial.Status(serialIDs[j])
					if err != nil {
						b.Fatal(err)
					}
					sb, err := eng.Status(engIDs[j])
					if err != nil {
						b.Fatal(err)
					}
					if sa.Best == nil || sb.Best == nil || sa.Best.Name != sb.Best.Name ||
						sa.Best.Accuracy != sb.Best.Accuracy {
						b.Fatalf("job %d best diverged: serial %+v vs in-process %+v", j, sa.Best, sb.Best)
					}
				}
			}
			b.ReportMetric(virtualSpeedup, "virtual-speedup")
			b.ReportMetric(float64(serialWall)/float64(engineWall), "wall-speedup")
			b.ReportMetric(utilization, "utilization")
		})
	}
}

// schedBenchResult is one row of the multi-tenant throughput section of
// BENCH_scheduler.json.
type schedBenchResult struct {
	Tenants      int     `json:"tenants"`
	Rounds       int     `json:"rounds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	NsPerRound   float64 `json:"ns_per_round"`
}

// schedBenchDoc is the multi-tenant scheduler section of one trajectory
// entry.
type schedBenchDoc struct {
	Benchmark string             `json:"benchmark"`
	Picker    string             `json:"picker"`
	Results   []schedBenchResult `json:"results"`
}

// pickPathBench is the pick-path section of one trajectory entry: the
// selection-index implementation versus the deep-clone baseline on the
// same many-jobs scheduler state.
type pickPathBench struct {
	Benchmark          string  `json:"benchmark"`
	Jobs               int     `json:"jobs"`
	Arms               int     `json:"arms"`
	ObservedPerJob     int     `json:"observed_per_job"`
	DeepCloneNsPerIter float64 `json:"deep_clone_ns_per_iter"`
	IndexedNsPerIter   float64 `json:"indexed_ns_per_iter"`
	Speedup            float64 `json:"speedup"`
}

// ingestBench is the ingest section of one trajectory entry: acked Feed
// throughput under concurrent clients against a durable service, where
// every Feed is fsynced to the WAL before it returns. The baseline
// serializes one write+fsync per append — the pre-segmentation
// single-file WAL discipline — while group commit lets concurrent
// appends share one fsync.
type ingestBench struct {
	Benchmark               string  `json:"benchmark"`
	Feeders                 int     `json:"feeders"`
	FsyncBeforeAck          bool    `json:"fsync_before_ack"`
	FsyncPerAppendEventsSec float64 `json:"fsync_per_append_events_per_sec"`
	GroupCommitEventsSec    float64 `json:"group_commit_events_per_sec"`
	Speedup                 float64 `json:"speedup"`
}

// servingBench is the serving section of one trajectory entry: the online
// inference path over real HTTP. PerRequestQPS pays one round trip per
// prediction; BatchQPS and StreamQPS amortize the round trip, the job
// lookup and the best-model resolution over BatchSize inputs.
// PlanCacheHitRate is measured on the repeated-program submit workload
// that precedes the QPS runs.
type servingBench struct {
	Benchmark        string  `json:"benchmark"`
	BatchSize        int     `json:"batch_size"`
	PerRequestQPS    float64 `json:"per_request_qps"`
	BatchQPS         float64 `json:"batch_qps"`
	StreamQPS        float64 `json:"stream_qps"`
	BatchSpeedup     float64 `json:"batch_speedup"`
	PlanCacheHitRate float64 `json:"plan_cache_hit_rate"`
}

// fleetBench is the fleet section of one trajectory entry: coordinator
// lease-grant throughput under the plain poll protocol (every grant pays
// the full PickWork sweep) versus the speculative protocol (workers
// pre-score against cached posteriors and most grants take the
// epoch-validated fast path).
type fleetBench struct {
	Benchmark          string  `json:"benchmark"`
	Jobs               int     `json:"jobs"`
	Workers            int     `json:"workers"`
	Devices            int     `json:"devices"`
	PollGrantsPerSec   float64 `json:"poll_grants_per_sec"`
	SpecGrantsPerSec   float64 `json:"speculative_grants_per_sec"`
	PollNsPerGrant     float64 `json:"poll_ns_per_grant"`
	SpecNsPerGrant     float64 `json:"speculative_ns_per_grant"`
	SpeculativeHitRate float64 `json:"speculative_hit_rate"`
	Speedup            float64 `json:"speedup"`
}

// benchRun is one commit's entry in the benchmark trajectory.
type benchRun struct {
	Commit    string         `json:"commit"`
	Scheduler *schedBenchDoc `json:"scheduler,omitempty"`
	PickPath  *pickPathBench `json:"pick_path,omitempty"`
	Ingest    *ingestBench   `json:"ingest,omitempty"`
	Serving   *servingBench  `json:"serving,omitempty"`
	Fleet     *fleetBench    `json:"fleet,omitempty"`
}

// benchTrajectory is the BENCH_scheduler.json schema: one entry per
// commit, appended across runs (re-running on the same commit replaces
// that commit's sections in place), so the committed file accumulates the
// performance history instead of being overwritten per run. CI uploads
// the accumulated file as an artifact.
type benchTrajectory struct {
	Runs []benchRun `json:"runs"`
}

var (
	schedBenchMu      sync.Mutex
	schedBenchResults = map[int]schedBenchResult{}
)

// benchCommit identifies the commit a benchmark run belongs to:
// BENCH_COMMIT and GITHUB_SHA override, then the local git HEAD, then
// "uncommitted".
func benchCommit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if c := os.Getenv("GITHUB_SHA"); c != "" {
		if len(c) > 12 {
			c = c[:12]
		}
		return c
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		if c := strings.TrimSpace(string(out)); c != "" {
			return c
		}
	}
	return "uncommitted"
}

// updateBenchTrajectory merges one section into the current commit's
// trajectory entry in BENCH_scheduler.json, preserving every other run.
// Called after each sub-benchmark, so a filtered -bench run still leaves a
// valid, fully-merged file.
func updateBenchTrajectory(b *testing.B, mutate func(*benchRun)) {
	b.Helper()
	schedBenchMu.Lock()
	defer schedBenchMu.Unlock()
	var doc benchTrajectory
	if data, err := os.ReadFile("BENCH_scheduler.json"); err == nil {
		// A parse failure (e.g. the pre-trajectory schema) starts a fresh
		// history rather than failing the benchmark.
		_ = json.Unmarshal(data, &doc)
	}
	commit := benchCommit()
	var run *benchRun
	for i := range doc.Runs {
		if doc.Runs[i].Commit == commit {
			run = &doc.Runs[i]
			break
		}
	}
	if run == nil {
		doc.Runs = append(doc.Runs, benchRun{Commit: commit})
		run = &doc.Runs[len(doc.Runs)-1]
	}
	mutate(run)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scheduler.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// writeSchedBench folds the accumulated multi-tenant throughput rows into
// the current commit's trajectory entry.
func writeSchedBench(b *testing.B) {
	schedBenchMu.Lock()
	rows := make([]schedBenchResult, 0, len(schedBenchResults))
	for _, r := range schedBenchResults {
		rows = append(rows, r)
	}
	schedBenchMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenants < rows[j].Tenants })
	updateBenchTrajectory(b, func(run *benchRun) {
		run.Scheduler = &schedBenchDoc{
			Benchmark: "BenchmarkSchedulerMultiTenant",
			Picker:    "class-weighted(hybrid)",
			Results:   rows,
		}
	})
}

// BenchmarkSchedulerMultiTenant measures end-to-end scheduling throughput
// — pick, train (instant simulated run), observe, record — as the tenant
// count scales from 1 to 64 under the default HYBRID picker wrapped in
// class-weighted fair sharing (tenants cycle through guaranteed /
// standard / best-effort). Every tenant submits one job; the serialized
// loop drains the whole job set. rounds/s is the headline metric; the
// results land in BENCH_scheduler.json to seed the perf trajectory.
func BenchmarkSchedulerMultiTenant(b *testing.B) {
	const program = "{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}"
	classes := []string{"guaranteed", "standard", "best-effort"}
	for _, tenants := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			totalRounds := 0
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				quotas := make(map[string]easeml.TenantQuota, tenants)
				names := make([]string, tenants)
				for u := 0; u < tenants; u++ {
					names[u] = fmt.Sprintf("tenant-%03d", u)
					quotas[names[u]] = easeml.TenantQuota{Class: classes[u%len(classes)]}
				}
				svc := easeml.NewService(easeml.ServiceConfig{Seed: 17, Quotas: quotas})
				for _, name := range names {
					if _, err := svc.Submit(name, program); err != nil {
						b.Fatal(err)
					}
				}
				start := time.Now()
				ran, err := svc.RunRounds(1 << 20)
				if err != nil {
					b.Fatal(err)
				}
				busy += time.Since(start)
				totalRounds += ran
			}
			if totalRounds == 0 || busy <= 0 {
				b.Fatal("benchmark ran no rounds")
			}
			perSec := float64(totalRounds) / busy.Seconds()
			b.ReportMetric(perSec, "rounds/s")
			b.ReportMetric(float64(busy.Nanoseconds())/float64(totalRounds), "ns/round")
			schedBenchMu.Lock()
			schedBenchResults[tenants] = schedBenchResult{
				Tenants:      tenants,
				Rounds:       totalRounds,
				RoundsPerSec: perSec,
				NsPerRound:   float64(busy.Nanoseconds()) / float64(totalRounds),
			}
			schedBenchMu.Unlock()
			writeSchedBench(b)
		})
	}
}

var (
	feedSatMu     sync.Mutex
	feedSatPerSec = map[string]float64{}
)

// BenchmarkFeedSaturation measures acked ingest throughput: 8 concurrent
// Feed clients split b.N appends against a durable service, and every
// Feed is fsynced to the WAL before it returns. fsync-per-append
// serializes one write+fsync per Feed under the log mutex — the
// pre-segmentation single-file WAL discipline — while group-commit runs
// the committer pipeline, so appends arriving during one fsync batch
// into the next. acked-events/s is the headline metric; both modes and
// their ratio land in BENCH_scheduler.json's ingest section.
func BenchmarkFeedSaturation(b *testing.B) {
	const (
		feeders = 8
		program = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	)
	for _, mode := range []struct {
		name     string
		interval time.Duration
	}{
		{"fsync-per-append", -1}, // serialized: one fsync per Feed, no committer
		{"group-commit", 0},      // committer pipeline: one fsync per batch
	} {
		b.Run(mode.name, func(b *testing.B) {
			svc, err := easeml.OpenService(easeml.ServiceConfig{
				GPUs: 4, Seed: 7, DataDir: b.TempDir(), WALSyncInterval: mode.interval,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			job, err := svc.Submit("sat", program)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < feeders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, err := svc.Feed(job.Name, []float64{float64(i), 1, 2, 3}, []float64{0, 1}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			perSec := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "acked-events/s")
			feedSatMu.Lock()
			feedSatPerSec[mode.name] = perSec
			feedSatMu.Unlock()
		})
	}
	feedSatMu.Lock()
	base, group := feedSatPerSec["fsync-per-append"], feedSatPerSec["group-commit"]
	feedSatMu.Unlock()
	if base > 0 && group > 0 {
		b.ReportMetric(group/base, "speedup")
		updateBenchTrajectory(b, func(run *benchRun) {
			run.Ingest = &ingestBench{
				Benchmark:               "BenchmarkFeedSaturation",
				Feeders:                 feeders,
				FsyncBeforeAck:          true,
				FsyncPerAppendEventsSec: base,
				GroupCommitEventsSec:    group,
				Speedup:                 group / base,
			}
		})
	}
}

// BenchmarkPickWorkManyJobs measures the scheduler's selection hot path at
// scale — 256 jobs × 35 candidate arms, ~60% observed — comparing the
// cross-job selection index (dirty-epoch score heap + O(1) prefix-sharing
// hallucination shadows + rank-1 hallucination downdates) against the
// deep-clone baseline (full posterior clone per shadow batch + linear
// picker scan). One benchmark iteration is one steady-state engine
// exchange: lease a batch on top of a standing in-flight set, then hand it
// back. Before timing, both modes run the same iteration sequence and
// every lease must match arm for arm (and UCB bit for bit) — the index is
// a pure optimization, never a behavior change. The measured speedup lands
// in BENCH_scheduler.json's pick_path section.
func BenchmarkPickWorkManyJobs(b *testing.B) {
	const (
		jobs    = 256
		program = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}" // 35 candidates
		hold    = 8                                                               // standing in-flight leases
		batch   = 2                                                               // leases exchanged per iteration
	)
	var arms, observedPerJob int
	setup := func() *server.Scheduler {
		// The pure greedy policy (§4.3) keeps concentrating picks on the
		// max-gap job, so a standing in-flight set puts every measured pick
		// on the hallucination-shadow path — the regime the index exists
		// for. (HYBRID degrades to round-robin once frozen, which spreads
		// picks across no-in-flight jobs and measures only the common
		// O(J) sweep both modes share.)
		sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 21), &core.GreedyPicker{}, "http://bench:9000")
		for i := 0; i < jobs; i++ {
			job, err := sc.Submit(fmt.Sprintf("bench-%03d", i), program)
			if err != nil {
				b.Fatal(err)
			}
			arms = len(job.Candidates)
		}
		// Observe ~60% of every job's arms so the posteriors carry a
		// realistic history (t ≈ 21): this is what makes the baseline's
		// O(t³) clone and O(K·t²) recomputes expensive.
		observedPerJob = arms * 6 / 10
		if _, err := sc.RunRounds(jobs * observedPerJob); err != nil {
			b.Fatal(err)
		}
		return sc
	}
	exchange := func(sc *server.Scheduler) []*server.Lease {
		leases, err := sc.PickWork(hold + batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range leases {
			if err := sc.Release(l); err != nil {
				b.Fatal(err)
			}
		}
		return leases
	}

	indexed := setup()
	deep := setup()
	deep.SetLegacySelection(true)

	// Standing in-flight set (never released): the picks under measurement
	// land on jobs that already have arms in flight, so every pick pays
	// the hallucination-shadow path.
	heldA, err := indexed.PickWork(hold)
	if err != nil {
		b.Fatal(err)
	}
	heldB, err := deep.PickWork(hold)
	if err != nil {
		b.Fatal(err)
	}
	if len(heldA) != hold || len(heldB) != hold {
		b.Fatalf("standing set: %d vs %d leases, want %d", len(heldA), len(heldB), hold)
	}

	// Bit-identity gate: the two modes must produce identical lease
	// sequences before either is timed.
	for i := 0; i < hold; i++ {
		if heldA[i].JobID != heldB[i].JobID || heldA[i].Arm != heldB[i].Arm || heldA[i].UCB != heldB[i].UCB {
			b.Fatalf("standing pick %d diverged: %s/%d@%v vs %s/%d@%v",
				i, heldA[i].JobID, heldA[i].Arm, heldA[i].UCB, heldB[i].JobID, heldB[i].Arm, heldB[i].UCB)
		}
	}
	for iter := 0; iter < 16; iter++ {
		la, lb := exchange(indexed), exchange(deep)
		if len(la) != len(lb) {
			b.Fatalf("iteration %d: %d vs %d leases", iter, len(la), len(lb))
		}
		for i := range la {
			if la[i].JobID != lb[i].JobID || la[i].Arm != lb[i].Arm || la[i].UCB != lb[i].UCB {
				b.Fatalf("iteration %d pick %d diverged: %s/%d@%v vs %s/%d@%v",
					iter, i, la[i].JobID, la[i].Arm, la[i].UCB, lb[i].JobID, lb[i].Arm, lb[i].UCB)
			}
		}
	}

	var deepNs, indexedNs float64
	run := func(sc *server.Scheduler, ns *float64) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := exchange(sc); len(got) == 0 {
					b.Fatal("exchange leased nothing")
				}
			}
			*ns = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		}
	}
	b.Run("deep-clone", run(deep, &deepNs))
	b.Run("indexed", run(indexed, &indexedNs))
	if deepNs > 0 && indexedNs > 0 {
		speedup := deepNs / indexedNs
		b.ReportMetric(speedup, "speedup")
		updateBenchTrajectory(b, func(run *benchRun) {
			run.PickPath = &pickPathBench{
				Benchmark:          "BenchmarkPickWorkManyJobs",
				Jobs:               jobs,
				Arms:               arms,
				ObservedPerJob:     observedPerJob,
				DeepCloneNsPerIter: deepNs,
				IndexedNsPerIter:   indexedNs,
				Speedup:            speedup,
			}
		})
	}
}

// benchFleetProposals ranks the open (untried, unleased) arms of a bench
// worker's cached posterior surfaces by UCB and returns the full ranking
// as speculative proposals, plus the known-epoch map — the agent's scoring
// loop, hand-rolled because the bench drives the coordinator in-process.
// Callers cache the result until a fresh posterior delta invalidates it.
func benchFleetProposals(post map[string]fleet.JobPosterior) ([]fleet.LeaseProposal, map[string]uint64) {
	epochs := make(map[string]uint64, len(post))
	type scored struct {
		p   fleet.LeaseProposal
		ucb float64
	}
	var cands []scored
	for id, s := range post {
		epochs[id] = s.Epoch
		if s.Done {
			continue
		}
		closed := make(map[int]bool, len(s.Tried)+len(s.Leased))
		for _, k := range s.Tried {
			closed[k] = true
		}
		for _, k := range s.Leased {
			closed[k] = true
		}
		for arm, u := range s.UCB {
			if !closed[arm] {
				cands = append(cands, scored{fleet.LeaseProposal{JobID: id, Arm: arm, Epoch: s.Epoch}, u})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ucb != cands[j].ucb {
			return cands[i].ucb > cands[j].ucb
		}
		if cands[i].p.JobID != cands[j].p.JobID {
			return cands[i].p.JobID < cands[j].p.JobID
		}
		return cands[i].p.Arm < cands[j].p.Arm
	})
	props := make([]fleet.LeaseProposal, len(cands))
	for i, c := range cands {
		props[i] = c.p
	}
	return props, epochs
}

// BenchmarkFleetLeaseThroughput measures coordinator lease-grant
// throughput: 256 jobs × 35 candidates, 8 registered workers driven
// serially in-process in a steady-state grant/release cycle (completions
// report a retryable failure, so candidates re-enter selection and the
// posterior never drains — the same exchange trick as
// BenchmarkPickWorkManyJobs). The poll mode takes the full PickWork path
// for every batch; the speculative mode proposes pre-scored (job, arm,
// epoch) triples and grants on the epoch-validated fast path. Only the
// coordinator's Lease call is on the clock — worker-side scoring runs
// between the timed sections, as it does in a real fleet. granted-leases/s
// per mode, their ratio and the speculative hit rate land in
// BENCH_scheduler.json's fleet section; the acceptance gate is ≥2×.
func BenchmarkFleetLeaseThroughput(b *testing.B) {
	const (
		jobs    = 256
		program = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}" // 35 candidates
		workers = 8
		devices = 4
	)
	type modeResult struct {
		grantsPerSec float64
		nsPerGrant   float64
		hitRate      float64
	}
	results := map[string]*modeResult{}
	run := func(name string, speculative bool) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 33), nil, "")
			for i := 0; i < jobs; i++ {
				if _, err := sc.Submit(fmt.Sprintf("fleet-%03d", i), program); err != nil {
					b.Fatal(err)
				}
			}
			// Observe a slice of every job so the surfaces carry history.
			if _, err := sc.RunRounds(jobs * 4); err != nil {
				b.Fatal(err)
			}
			coord := fleet.NewCoordinator(sc, fleet.CoordinatorConfig{
				Seed: 33, MaxRetries: 1 << 30, DisableSpeculative: !speculative,
			})
			// Each bench worker keeps a cached UCB ranking of its posterior
			// surfaces and re-scores only when a posterior delta arrives —
			// the same cache discipline as fleet.Agent, hand-rolled so the
			// untimed worker side stays allocation-quiet and the timed Lease
			// sections are not polluted by scoring garbage or GC.
			type wstate struct {
				id      string
				post    map[string]fleet.JobPosterior
				version uint64
				dirty   bool
				ranked  []fleet.LeaseProposal
				epochs  map[string]uint64
			}
			ws := make([]*wstate, workers)
			for i := range ws {
				reg := coord.Register(fleet.RegisterRequest{Name: fmt.Sprintf("bench-%d", i), Devices: devices})
				ws[i] = &wstate{id: reg.WorkerID, post: map[string]fleet.JobPosterior{}}
			}
			granted, proposed := 0, 0
			var leaseDur time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := ws[i%workers]
				req := fleet.LeaseRequest{WorkerID: w.id, Max: devices}
				if speculative {
					if w.dirty {
						w.ranked, w.epochs = benchFleetProposals(w.post)
						w.dirty = false
					}
					req.Proposals, req.PosteriorEpochs = w.ranked, w.epochs
					req.PosteriorVersion = w.version
					if len(req.Proposals) > devices {
						req.Proposals = req.Proposals[:devices]
					}
					proposed += len(req.Proposals)
				}
				t0 := time.Now()
				resp, err := coord.Lease(req)
				leaseDur += time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range resp.Posteriors {
					w.post[p.JobID] = p
					w.dirty = true
				}
				if resp.PosteriorVersion != 0 {
					w.version = resp.PosteriorVersion
				}
				granted += len(resp.Leases)
				for _, wl := range resp.Leases {
					cr, err := coord.Complete(fleet.CompleteRequest{
						WorkerID: w.id, LeaseID: wl.LeaseID, Error: "bench: steady-state release",
					})
					if err != nil {
						b.Fatal(err)
					}
					if cr.Posterior != nil {
						w.post[cr.Posterior.JobID] = *cr.Posterior
						w.dirty = true
					}
				}
			}
			b.StopTimer()
			if granted == 0 || leaseDur <= 0 {
				b.Fatal("benchmark granted no leases")
			}
			r := &modeResult{
				grantsPerSec: float64(granted) / leaseDur.Seconds(),
				nsPerGrant:   float64(leaseDur.Nanoseconds()) / float64(granted),
			}
			if speculative && proposed > 0 {
				r.hitRate = float64(sc.SelectionStats().SpeculativeGrants) / float64(proposed)
				b.ReportMetric(r.hitRate, "hit-rate")
			}
			b.ReportMetric(r.grantsPerSec, "granted-leases/s")
			b.ReportMetric(r.nsPerGrant, "ns/grant")
			schedBenchMu.Lock()
			results[name] = r
			schedBenchMu.Unlock()
		})
	}
	run("poll", false)
	run("speculative", true)
	schedBenchMu.Lock()
	poll, spec := results["poll"], results["speculative"]
	schedBenchMu.Unlock()
	if poll != nil && spec != nil {
		speedup := spec.grantsPerSec / poll.grantsPerSec
		b.ReportMetric(speedup, "speedup")
		updateBenchTrajectory(b, func(run *benchRun) {
			run.Fleet = &fleetBench{
				Benchmark:          "BenchmarkFleetLeaseThroughput",
				Jobs:               jobs,
				Workers:            workers,
				Devices:            devices,
				PollGrantsPerSec:   poll.grantsPerSec,
				SpecGrantsPerSec:   spec.grantsPerSec,
				PollNsPerGrant:     poll.nsPerGrant,
				SpecNsPerGrant:     spec.nsPerGrant,
				SpeculativeHitRate: spec.hitRate,
				Speedup:            speedup,
			}
		})
	}
}

func BenchmarkFigure08DatasetStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats := experiments.Figure8()
		if len(stats) != 6 {
			b.Fatalf("%d datasets", len(stats))
		}
	}
}

func BenchmarkFigure09EndToEnd(b *testing.B) {
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(finalAvg(res, 0), "easeml-final-loss")
	b.ReportMetric(finalAvg(res, 1), "mostcited-final-loss")
	b.ReportMetric(finalAvg(res, 2), "mostrecent-final-loss")
	if s, ok := experiments.Figure9Speedup(res, 0.15); ok {
		b.ReportMetric(s, "speedup@0.15")
	}
}

func BenchmarkFigure10CostOblivious(b *testing.B) {
	// One representative pair per benchmark iteration: the real-quality
	// dataset plus one SYN instance (the full six-dataset sweep lives in
	// cmd/experiments).
	var deep, syn experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		deep, err = experiments.Run(experiments.Protocol{
			Dataset:   dataset.DeepLearning(),
			TestUsers: benchCfg.TestUsers,
			Runs:      benchCfg.RunsSmall,
			Seed:      benchCfg.Seed,
		}, []experiments.Strategy{experiments.EaseML(), experiments.RoundRobin(), experiments.Random()})
		if err != nil {
			b.Fatal(err)
		}
		syn, err = experiments.Run(experiments.Protocol{
			Dataset:   dataset.Syn(0.5, 1.0),
			TestUsers: benchCfg.TestUsers,
			Runs:      benchCfg.RunsLarge,
			Seed:      benchCfg.Seed,
		}, []experiments.Strategy{experiments.EaseML(), experiments.RoundRobin(), experiments.Random()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(finalAvg(deep, 0), "deep-easeml-loss")
	b.ReportMetric(finalAvg(deep, 1), "deep-roundrobin-loss")
	b.ReportMetric(finalAvg(syn, 0), "syn-easeml-loss")
	b.ReportMetric(finalAvg(syn, 1), "syn-roundrobin-loss")
}

func BenchmarkFigure11CostAware(b *testing.B) {
	var deep experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		deep, err = experiments.Run(experiments.Protocol{
			Dataset:   dataset.DeepLearning(),
			TestUsers: benchCfg.TestUsers,
			Runs:      benchCfg.RunsSmall,
			CostAware: true,
			Seed:      benchCfg.Seed,
		}, []experiments.Strategy{experiments.EaseML(), experiments.RoundRobin(), experiments.Random()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(finalAvg(deep, 0), "easeml-loss")
	b.ReportMetric(finalAvg(deep, 1), "roundrobin-loss")
	b.ReportMetric(finalAvg(deep, 2), "random-loss")
}

func BenchmarkFigure12Correlation(b *testing.B) {
	// Strong vs weak model correlation at α=1: stronger correlation must
	// help every scheduler (§5.3.1).
	var strong, weak experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		strong, err = experiments.Run(experiments.Protocol{
			Dataset:   dataset.Syn(0.5, 1.0),
			TestUsers: benchCfg.TestUsers,
			Runs:      benchCfg.RunsLarge,
			Seed:      benchCfg.Seed,
		}, []experiments.Strategy{experiments.EaseML()})
		if err != nil {
			b.Fatal(err)
		}
		weak, err = experiments.Run(experiments.Protocol{
			Dataset:   dataset.Syn(0.01, 1.0),
			TestUsers: benchCfg.TestUsers,
			Runs:      benchCfg.RunsLarge,
			Seed:      benchCfg.Seed,
		}, []experiments.Strategy{experiments.EaseML()})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mid-budget worst-case losses (the Figure 12 panels).
	mid := len(strong.Series[0].Worst) / 2
	b.ReportMetric(strong.Series[0].Worst[mid], "strongcorr-worst@50")
	b.ReportMetric(weak.Series[0].Worst[mid], "weakcorr-worst@50")
}

func BenchmarkFigure13CostLesion(b *testing.B) {
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure13(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(finalAvg(res, 0), "costaware-loss")
	b.ReportMetric(finalAvg(res, 1), "costoblivious-loss")
}

func BenchmarkFigure14KernelTraining(b *testing.B) {
	var res map[string]experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure14(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(finalAvg(res["10%"], 0), "kernel10pct-loss")
	b.ReportMetric(finalAvg(res["50%"], 0), "kernel50pct-loss")
	b.ReportMetric(finalAvg(res["100%"], 0), "kernel100pct-loss")
}

func BenchmarkFigure15Hybrid(b *testing.B) {
	cfg := benchCfg
	cfg.RunsLarge = 1 // a full-budget 179CLASSIFIER replay is ~4s per run
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure15(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Early-budget (10%) losses: GREEDY ahead of ROUNDROBIN, HYBRID close
	// to GREEDY.
	g10 := res.Series[0].Avg[10]
	r10 := res.Series[1].Avg[10]
	h10 := res.Series[2].Avg[10]
	b.ReportMetric(g10, "greedy-loss@10")
	b.ReportMetric(r10, "roundrobin-loss@10")
	b.ReportMetric(h10, "hybrid-loss@10")
	if x, ok := experiments.Crossover(res.Series[0], res.Series[1]); ok {
		b.ReportMetric(x, "rr-overtakes-greedy@pct")
	}
}

// BenchmarkInferQPS measures the online-serving path over real HTTP: one
// trained job behind httptest, driven through internal/client. per-request
// is the seed-era serving story (one POST per prediction); batch and
// stream answer the same inputs through POST /jobs/{id}/infer/batch and
// the NDJSON streaming endpoint. The setup also replays a repeated-program
// submit workload against a cold plan cache and records its hit rate; the
// acceptance gate is batch ≥ 3× per-request QPS and hit rate > 0.9, both
// persisted in the serving section of BENCH_scheduler.json.
func BenchmarkInferQPS(b *testing.B) {
	const (
		batchSize = 64
		tsProg    = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	)

	// Repeated-program workload against a cold cache: 50 tenants, one
	// program.
	dsl.ResetPlanCache()
	svc := easeml.NewService(easeml.ServiceConfig{GPUs: 4, Seed: 7})
	var jobID string
	for i := 0; i < 50; i++ {
		job, err := svc.Submit(fmt.Sprintf("bench-tenant-%d", i), tsProg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			jobID = job.Name
		}
	}
	hitRate := dsl.PlanCacheStats().HitRate()
	if _, err := svc.RunRounds(2); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()
	inputs := make([][]float64, batchSize)
	for i := range inputs {
		inputs[i] = []float64{float64(i), 1, 2, 3}
	}

	var perRequestQPS, batchQPS, streamQPS float64
	b.Run("per-request", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Infer(ctx, jobID, inputs[i%batchSize]); err != nil {
				b.Fatal(err)
			}
		}
		perRequestQPS = float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(perRequestQPS, "qps")
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := cl.InferBatch(ctx, jobID, inputs)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Outputs) != batchSize {
				b.Fatalf("%d outputs", len(resp.Outputs))
			}
		}
		batchQPS = float64(b.N*batchSize) / b.Elapsed().Seconds()
		b.ReportMetric(batchQPS, "qps")
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if _, err := cl.InferStream(ctx, jobID, inputs, func(int, []float64) error {
				n++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if n != batchSize {
				b.Fatalf("%d stream lines", n)
			}
		}
		streamQPS = float64(b.N*batchSize) / b.Elapsed().Seconds()
		b.ReportMetric(streamQPS, "qps")
	})

	if perRequestQPS > 0 && batchQPS > 0 {
		speedup := batchQPS / perRequestQPS
		b.ReportMetric(speedup, "batch-speedup")
		b.ReportMetric(hitRate, "plan-cache-hit-rate")
		updateBenchTrajectory(b, func(run *benchRun) {
			run.Serving = &servingBench{
				Benchmark:        "BenchmarkInferQPS",
				BatchSize:        batchSize,
				PerRequestQPS:    perRequestQPS,
				BatchQPS:         batchQPS,
				StreamQPS:        streamQPS,
				BatchSpeedup:     speedup,
				PlanCacheHitRate: hitRate,
			}
		})
	}
}
