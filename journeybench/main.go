// Command journeybench drives a freshly built easeml-server binary over
// HTTP with one of three workloads (ingest, training, journey) and prints
// end-to-end metrics, or with -trace 1 the per-layer breakdown, as one
// JSON object on the last line of standard output. See README.md.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Generator self-check limits: a run past either is invalid — it measured
// the load generator, not the server.
const (
	maxLateMSP99  = 25.0
	maxCPUShare   = 0.6
	maxStealShare = 0.2 // CPU stolen by the hypervisor, as a share of all CPU time
)

// A run repeats its workload reps times, each repetition on a fresh
// server with its own set-up and a measured phase of 1/reps of the run
// length; every reported metric is the median over the repetitions, so one
// disturbed repetition does not move the result.
//
// On a shared host the hypervisor can steal CPU from the whole machine for
// seconds at a time, which stretches every latency. A repetition during
// which more than maxRepSteal of the machine's CPU time was stolen is
// disturbed: the run then spends up to spareReps extra repetitions, and
// its metrics come from the undisturbed ones (see combine).
const (
	reps        = 3
	spareReps   = 1
	maxRepSteal = 0.03
)

// disturbed counts the repetitions whose machine lost more than
// maxRepSteal of its CPU time to steal.
func disturbed(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if o.layer["loadgen.steal_share"] > maxRepSteal {
			n++
		}
	}
	return n
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	// rate overrides the offered load of the open-loop workloads
	// (ingest requests/s, journey sessions/s); 0 keeps the default.
	rate float64
	// corrupt deliberately damages one input of the workload's
	// correctness gate (smoke test only), which must then fail.
	corrupt bool
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured.
type outcome struct {
	e2e       map[string]metric // the contract's end-to-end metrics
	named     []namedMetric     // the workload's own table, printed by name
	layer     map[string]float64
	attempted int
	failed    int
	gateErrs  []string
	env       map[string]any
	offered   string   // the workload's offered load, for the environment record
	invalid   []string // generator self-check failures (see selfCheck)
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) add(name string, v float64, unit string) {
	o.named = append(o.named, namedMetric{name, v, unit})
}

func (o *outcome) gate(format string, args ...any) {
	o.gateErrs = append(o.gateErrs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runner) (*outcome, error){
	"ingest":   runIngest,
	"training": runTraining,
	"journey":  runJourney,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "ingest, training, journey, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 24, "measured seconds of the run, split over the repetitions")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.StringVar(&cfg.serverBin, "server", ".bench_build/easeml-server", "easeml-server binary to drive")
	flag.Float64Var(&cfg.rate, "rate", 0, "offered load of ingest (requests/s) or journey (sessions/s) for a load sweep; 0 = the workload's default")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fail("-seconds must be at least 1")
	}
	if cfg.rate < 0 {
		fail("-rate must not be negative")
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"ingest", "training", "journey"}
	}
	for _, name := range names {
		if workloads[name] == nil {
			fail(fmt.Sprintf("unknown workload %q", name))
		}
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		line, err := runOne(c)
		if err != nil {
			fail(fmt.Sprintf("%s: %v", name, err))
		}
		fmt.Println(line)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "journeybench:", msg)
	os.Exit(1)
}

// runOne measures a workload, prints its named metrics, environment record
// and (when tracing) per-layer table, and returns the JSON result line.
func runOne(cfg config) (string, error) {
	res, err := measure(cfg)
	if err != nil {
		return "", err
	}
	for _, m := range res.named {
		fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	env, _ := json.Marshal(res.env)
	fmt.Printf("env %s\n", env)
	for _, g := range res.gateErrs {
		fmt.Fprintln(os.Stderr, "journeybench: correctness gate failed:", g)
	}
	for _, why := range res.invalid {
		fmt.Fprintln(os.Stderr, "journeybench: RUN INVALID (discard and rerun):", why)
	}
	metrics := map[string]metric{}
	if cfg.trace {
		keys := make([]string, 0, len(res.layer))
		for k := range res.layer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			metrics[k] = metric{res.layer[k], layerUnit(k)}
			fmt.Printf("layer %-40s %14.4f %s\n", k, res.layer[k], layerUnit(k))
		}
	} else {
		metrics = res.e2e
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.gateErrs) == 0, res.attempted, res.failed, metrics})
	return string(out), err
}

// measure runs a workload untraced and, when tracing, once more traced;
// the traced outcome carries the tracing overhead against the untraced one.
func measure(cfg config) (*outcome, error) {
	untraced := cfg
	untraced.trace = false
	base, err := runWorkload(untraced)
	if err != nil || !cfg.trace {
		return base, err
	}
	traced, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	traced.layer["tracing.overhead_pct"] = 100 * (traced.e2e[headline].Value/base.e2e[headline].Value - 1)
	traced.gateErrs = append(traced.gateErrs, base.gateErrs...)
	traced.invalid = append(traced.invalid, base.invalid...)
	return traced, nil
}

// headline is the end-to-end metric the tracing overhead is computed on.
const headline = "op_p50_ms"

// tailE2E is the end-to-end tail latency metric, at quantile tailQ: the
// highest quantile every workload fills with at least ten samples beyond it.
const (
	tailE2E = "op_p90_ms"
	tailQ   = 0.90
)

// runner is the state one workload run shares across its phases.
type runner struct {
	cfg   config
	dir   string
	tr    *capTransport
	spans *spanLog
	tally *tally
	rng   *rand.Rand
	out   *outcome
	rep   int // current repetition

	rttMu     sync.Mutex
	clientRTT map[string]*acc // per client op: time inside the client method
	exec      acc             // executor calls, ms
	devices   int             // device slots across the runner's agents
}

func runWorkload(cfg config) (*outcome, error) {
	if _, err := os.Stat(cfg.serverBin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	dir, err := newWorkDir(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, dir: dir}
	if cfg.trace {
		r.spans = newSpanLog()
	}
	var outs []*outcome
	for r.rep = 0; r.rep < reps+spareReps; r.rep++ {
		if r.rep >= reps && disturbed(outs) == 0 {
			break
		}
		// Each repetition draws its inputs from its own sub-seed of the run's
		// seed, so a run averages over several arrival patterns.
		r.rng = rand.New(rand.NewSource(cfg.seed*256 + int64(r.rep)))
		r.out = &outcome{e2e: map[string]metric{}, layer: map[string]float64{}}
		r.tally = newTally()
		r.clientRTT = map[string]*acc{}
		r.tr = newCapTransport(runtime.NumCPU(), r.spans)
		out, err := workloads[cfg.workload](r)
		if err != nil {
			return nil, fmt.Errorf("%w (work dir kept: %s)", err, dir)
		}
		out.env = r.env()
		outs = append(outs, out)
	}
	out := combine(outs)
	if cfg.trace {
		if err := r.writeSpans(); err != nil {
			return nil, err
		}
	}
	if len(out.gateErrs) == 0 {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rate is the offered load of an open-loop workload: def unless -rate
// overrides it.
func (r *runner) rate(def float64) float64 {
	if r.cfg.rate > 0 {
		return r.cfg.rate
	}
	return def
}

// phaseLength is the measured time of one repetition.
func (r *runner) phaseLength() time.Duration {
	return time.Duration(r.cfg.seconds) * time.Second / reps
}

// combine merges the repetitions of a run: every metric is the median over
// the undisturbed repetitions (at most reps of them; the least disturbed
// one when all were), while counts and gate failures cover every
// repetition run.
func combine(outs []*outcome) *outcome {
	kept := slices.Clone(outs)
	slices.SortStableFunc(kept, func(a, b *outcome) int {
		return cmp.Compare(a.layer["loadgen.steal_share"], b.layer["loadgen.steal_share"])
	})
	kept = kept[:max(1, min(reps, len(kept)-disturbed(kept)))]
	o := &outcome{e2e: map[string]metric{}, layer: map[string]float64{}, env: outs[len(outs)-1].env}
	for k, m := range kept[0].e2e {
		var vs []float64
		for _, x := range kept {
			vs = append(vs, x.e2e[k].Value)
		}
		o.e2e[k] = metric{median(vs), m.Unit}
	}
	for k := range kept[0].layer {
		var vs []float64
		for _, x := range kept {
			vs = append(vs, x.layer[k])
		}
		o.layer[k] = median(vs)
	}
	for i, m := range kept[0].named {
		var vs []float64
		for _, x := range kept {
			vs = append(vs, x.named[i].value)
		}
		o.add(m.name, median(vs), m.unit)
	}
	requests := map[string]kindStats{}
	for _, x := range outs {
		o.attempted += x.attempted
		o.failed += x.failed
		o.gateErrs = append(o.gateErrs, x.gateErrs...)
		for k, v := range x.env["requests"].(map[string]kindStats) {
			t := requests[k]
			t.Sent, t.Succeeded, t.Failed = t.Sent+v.Sent, t.Succeeded+v.Succeeded, t.Failed+v.Failed
			requests[k] = t
		}
	}
	sent, ok, failed := 0, 0, 0
	for _, v := range requests {
		sent, ok, failed = sent+v.Sent, ok+v.Succeeded, failed+v.Failed
	}
	o.env["requests"], o.env["sent"], o.env["succeeded"], o.env["failed"] = requests, sent, ok, failed
	var perRep []map[string]metric
	var steal []float64
	for _, x := range outs {
		perRep = append(perRep, x.e2e)
		steal = append(steal, x.layer["loadgen.steal_share"])
	}
	o.env["e2e_per_repetition"], o.env["steal_per_repetition"] = perRep, steal
	o.env["repetitions"], o.env["repetitions_kept"] = len(outs), len(kept)
	o.add("failure_share", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	if o.failed > 0 {
		o.gate("%d of %d operations failed or were refused", o.failed, o.attempted)
	}
	for _, k := range []string{"loadgen.late_ms_p99", "loadgen.cpu_share", "loadgen.steal_share"} {
		o.env[strings.ReplaceAll(k, ".", "_")] = o.layer[k]
	}
	o.invalid = selfCheck(o.layer)
	o.env["valid"], o.env["invalid"] = len(o.invalid) == 0, o.invalid
	return o
}

// setup starts the server on a fresh data directory and builds the
// workload's population, recording setup_s as exec → ready → population
// done.
func (r *runner) setup(extra []string, populate func(*serverProc) error) (*serverProc, error) {
	dataDir := filepath.Join(r.dir, fmt.Sprintf("data-%d", r.rep))
	start := time.Now()
	p, _, err := startServer(r.cfg.serverBin, dataDir, filepath.Join(r.dir, "server.log"), extra...)
	if err != nil {
		return nil, err
	}
	if err := populate(p); err != nil {
		p.stop()
		return nil, fmt.Errorf("building population: %w", err)
	}
	took := time.Since(start).Seconds()
	r.out.e2e["setup_s"] = metric{took, "s"}
	r.out.add("setup_s", took, "s")
	return p, nil
}

// recover SIGKILLs the server and restarts it once on the same data
// directory, recording the restart exec → /readyz as recover_s (printed)
// and wal.recover_ms (per-layer). Restart times spread too much from run
// to run on a shared host to gate on. The restarted server is returned
// for the gates.
func (r *runner) recover(p *serverProc, extra []string) (*serverProc, error) {
	p.stop()
	next, took, err := startServer(r.cfg.serverBin, p.dataDir, filepath.Join(r.dir, "server.log"), extra...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	r.out.layer["wal.recover_ms"] = 1000 * took.Seconds()
	r.out.add("recover_s", took.Seconds(), "s")
	return next, nil
}

// phase brackets a measured phase: server metrics, server CPU, the
// runner's own CPU and the machine's stolen CPU are read at both ends.
type phase struct {
	start, end time.Time
	before, d  metricsSnap
	srvCPUMS   float64 // server utime+stime, ms
	selfCPU    time.Duration
	steal      float64 // machine-wide stolen CPU, clock ticks
	routes     map[string]routeStats
	ops        int // user-visible operations completed in the phase
}

func cpuSelf() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine's stolen CPU time (USER_HZ ticks) from
// /proc/stat; 0 where the kernel does not report it.
func stealTicks() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

func (r *runner) beginPhase(p *serverProc) (*phase, error) {
	before, err := scrape(p.base)
	if err != nil {
		return nil, err
	}
	cpu, _, err := p.procStats()
	if err != nil {
		return nil, err
	}
	r.tr.snapshotRoutes()
	return &phase{start: time.Now(), before: before, srvCPUMS: cpu, selfCPU: cpuSelf(), steal: stealTicks()}, nil
}

// endPhase closes the phase at end (the last completion) and computes the
// metrics every workload shares. ops counts the phase's user-visible
// operations for the per-op layer figures; each workload sets ops_per_s
// itself, from a throughput the server controls.
func (r *runner) endPhase(p *serverProc, ph *phase, end time.Time, ops int) error {
	ph.end = end
	ph.ops = ops
	selfCPU := cpuSelf() - ph.selfCPU
	steal := stealTicks() - ph.steal
	ph.routes = r.tr.snapshotRoutes()
	after, err := scrape(p.base)
	if err != nil {
		return err
	}
	ph.d = delta(ph.before, after)
	cpu, hwm, err := p.procStats()
	if err != nil {
		return err
	}
	ph.srvCPUMS = cpu - ph.srvCPUMS
	wall := ph.end.Sub(ph.start).Seconds()
	cpus := float64(runtime.NumCPU())
	o := r.out
	o.e2e["server_rss_mb"] = metric{hwm, "MiB"}
	o.add("server_rss_mb", hwm, "MiB")
	r.layerMetrics(ph)
	o.layer["server.cpu_ms_per_op"] = ratio(ph.srvCPUMS, float64(ops))
	o.layer["loadgen.cpu_share"] = selfCPU.Seconds() / (wall * cpus)
	o.layer["loadgen.late_ms_p99"] = percentile(r.tally.late, 0.99)
	o.layer["loadgen.steal_share"] = steal / 100 / (wall * cpus)
	o.layer["layer.client.busy_share"] = r.spans.busyShare("client", ph.start, ph.end)
	o.layer["layer.fleet.busy_share"] = r.spans.busyShare("fleet", ph.start, ph.end)
	o.layer["layer.executor.busy_share"] = r.spans.busyShare("executor", ph.start, ph.end)
	o.layer["layer.server_http.busy_share"] = ph.d.sum("easeml_http_request_seconds_sum") / wall
	o.layer["layer.wal_fsync.busy_share"] = ph.d.sum("easeml_wal_fsync_seconds_sum") / wall
	return nil
}

// selfCheck lists the generator limits a run's (median) figures pass; a
// run with any is invalid: it measured the load generator, not the server.
func selfCheck(layer map[string]float64) []string {
	var invalid []string
	if l := layer["loadgen.late_ms_p99"]; l > maxLateMSP99 {
		invalid = append(invalid, fmt.Sprintf("generator lateness p99 %.1f ms exceeds %.0f ms", l, maxLateMSP99))
	}
	if s := layer["loadgen.cpu_share"]; s > maxCPUShare {
		invalid = append(invalid, fmt.Sprintf("generator CPU share %.2f exceeds %.2f", s, maxCPUShare))
	}
	if s := layer["loadgen.steal_share"]; s > maxStealShare {
		invalid = append(invalid, fmt.Sprintf("the machine lost %.2f of its CPU time to steal (limit %.2f)", s, maxStealShare))
	}
	return invalid
}

// env is the environment record printed with every result.
func (r *runner) env() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpuModel := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpuModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "seconds": r.cfg.seconds, "trace": r.cfg.trace,
		"commit": commit, "cpu": cpuModel, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "in_flight_cap": cap(r.tr.slots),
		"offered": r.out.offered, "requests": r.tally.counts(),
	}
}

func (r *runner) writeSpans() error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", r.cfg.workload, r.cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.spans.mu.Lock()
	for _, s := range r.spans.spans {
		if err := enc.Encode(s); err != nil {
			r.spans.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.spans.mu.Unlock()
	return f.Close()
}

// openLoop dispatches each request at its scheduled offset from start,
// regardless of how earlier ones fare, and waits for all of them. It
// records the generator's lateness per dispatch.
func (r *runner) openLoop(at []time.Duration, do func(i int, due time.Time)) time.Time {
	done := make(chan time.Time, len(at)) // one send per request
	start := time.Now()
	for i, off := range at {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.tally.lateness(float64(time.Since(due)) / 1e6)
		go func(i int, due time.Time) {
			do(i, due)
			done <- time.Now()
		}(i, due)
	}
	last := start
	for range at {
		if t := <-done; t.After(last) {
			last = t
		}
	}
	return last
}

// arrivals draws n arrival offsets of a Poisson process over [0, span)
// conditioned on exactly n arrivals: sorted uniform order statistics.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}
