// Package server implements the ease.ml service of §2 Figure 1: users submit
// declarative jobs over HTTP, feed supervision examples, refine them, and
// call infer against the best model found so far, while a multi-tenant
// scheduler (internal/core's HYBRID policy) decides which job's next
// candidate model to train on the shared (simulated) GPU pool.
//
// Scheduling is a two-phase API: PickWork leases (job, candidate) pairs —
// chosen by the user picker with in-flight arms hallucinated GP-BUCB style —
// and Complete feeds results back. RunRound drives it serialized (the
// deployed single-device strategy); internal/fleet's Coordinator drives it
// for concurrent workers, remote or in-process. The HTTP surface (see API
// in http.go) adds /admin/metrics and /admin/start|stop for the in-process
// workers.
//
// # Locking discipline
//
// State is guarded by three lock tiers instead of one global mutex, so
// user-facing operations on one job never wait behind scheduling decisions
// or bandit updates for another:
//
//   - jobsMu (RWMutex) guards the job set (jobs, byID, nextID). Write-held
//     only during Submit and recovery; every other path takes the read side
//     for a map lookup.
//   - coordMu is the cross-job coordinator: picker decisions, the lease
//     table and the round counter. It is never held across training, store
//     writes or WAL appends.
//   - each Job has its own mu guarding the tenant (bandit posterior, σ̃
//     recurrence), its failure flag and its abandoned list. Complete's
//     O(t²) posterior update runs under the job lock only, so completions
//     for different jobs proceed in parallel.
//
// Lock order: jobsMu before coordMu before job locks; job locks are always
// acquired in sc.jobs slice order (the cross-job picker holds all of them
// for the duration of one decision). Feed/Refine/Infer/Status take none of
// coordMu or the job locks — they touch only the per-task storage, which
// does its own locking.
//
// # Durability
//
// With a write-ahead log attached (SetLog / Recover), every state mutation
// appends a WAL event before the operation acknowledges: job submissions,
// fed and refined examples, recorded models and abandoned candidates all
// survive a crash. A failed append surfaces as an error from the mutating
// call; the in-memory state may then be ahead of the log (there is no
// transactional rollback) — treat the process as failing and restart it,
// at which point recovery reflects exactly the acknowledged operations.
// Leases are volatile — an in-flight lease of a crashed process leaves its
// arm untried in the recovered state and is re-queued by the next process's
// first scheduling pass. (Lease *expiries* are logged, though: when a fleet
// worker goes silent and its lease times out, the expiry event is appended
// so the operational history survives a coordinator crash.)
//
// # Lease TTL and expiry
//
// With SetLeaseTTL the scheduler supports remote workers that can die
// mid-training: every lease carries an expiry deadline refreshed by
// HeartbeatLease, and ExpireLeases (driven by the fleet coordinator's
// sweeper) removes leases whose holder went silent, making their arms
// selectable again — the candidate re-enters GP-BUCB selection exactly
// once, because a late Complete/Release for an expired lease fails with
// ErrLeaseConflict. A zero TTL (the default, used when no coordinator is
// attached) means leases never expire.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/gp"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/templates"
	"repro/internal/trainsim"
)

// Trainer runs one candidate model for a job and reports its measured
// accuracy plus the execution cost. EstimateCost must be stable and
// strictly positive; the scheduler uses it for cost-aware selection before
// the candidate ever runs. Implementations must be safe for concurrent use:
// in-process workers call Train from many goroutines at once, and a failed
// run must surface as an error, never a panic (a panic inside a
// worker would take down the whole server).
type Trainer interface {
	Train(jobID string, c templates.Candidate) (accuracy, cost float64, err error)
	EstimateCost(jobID string, c templates.Candidate) (float64, error)
}

// SimTrainer trains candidates on the trainsim learning-curve substrate,
// accounted through a simulated GPU pool. By default every run takes the
// whole pool (the deployed single-device strategy of §4.5); with Devices > 0
// runs are packed one-GPU-each onto that many devices instead (the
// multi-device strategy of §5.3.2, used by the in-process workers).
type SimTrainer struct {
	Pool *cluster.Pool
	Seed int64

	// Devices selects the pool-accounting mode: 0 serializes every run
	// across the whole pool; N > 0 packs runs one GPU each onto the first N
	// devices, overlapping in virtual time.
	Devices int

	// Delay, when positive, makes every Train call sleep that long. The
	// simulated substrate is otherwise instantaneous; benchmarks use Delay
	// to surface the in-process workers' wall-clock concurrency.
	Delay time.Duration

	// mu is an RWMutex because the sims map is read-mostly: registration
	// writes once per job, while every Train/EstimateCost from every
	// concurrent worker only reads, so lookups proceed in parallel.
	mu   sync.RWMutex
	sims map[string]*simEntry
}

type simEntry struct {
	sim   *trainsim.Simulator
	index map[string]int // candidate name → model index
}

// NewSimTrainer creates a SimTrainer over the given pool.
func NewSimTrainer(pool *cluster.Pool, seed int64) *SimTrainer {
	return &SimTrainer{Pool: pool, Seed: seed, sims: make(map[string]*simEntry)}
}

// ErrAlreadyRegistered is returned by SimTrainer.Register for a job id
// that already has a simulator.
var ErrAlreadyRegistered = errors.New("server: job already registered with trainer")

// Register builds the per-job simulator for a candidate list. Candidate
// training behaviour is derived deterministically from the job id and the
// candidate name, so restarts reproduce the same quality surface.
// Registering a job id twice fails with ErrAlreadyRegistered.
func (st *SimTrainer) Register(jobID string, cands []templates.Candidate) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.sims[jobID]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, jobID)
	}
	h := fnv.New64a()
	h.Write([]byte(jobID))
	jobHash := int64(h.Sum64() & 0x7fffffffffff)

	difficulty := 0.05 + 0.30*frac(jobHash, 11)
	entry := &simEntry{index: make(map[string]int, len(cands))}
	models := make([]trainsim.ModelSpec, len(cands))
	for i, c := range cands {
		ch := fnv.New64a()
		ch.Write([]byte(c.Model))
		candHash := int64(ch.Sum64() & 0x7fffffffffff)
		peak := 0.55 + 0.40*frac(candHash, 3)
		if c.Normalizer != nil {
			// Normalization variants perturb the base model's peak: helpful
			// for some (job, k) pairs, harmful for others.
			peak += 0.10 * (frac(jobHash^candHash, 5) - 0.5) * c.Normalizer.K
			peak = clamp(peak, 0.05, 0.99)
		}
		models[i] = trainsim.ModelSpec{
			Name:         c.Name(),
			Peak:         peak,
			Tau:          10 + 30*frac(candHash, 7),
			CostPerEpoch: 0.5 + 15*frac(candHash, 13)*frac(candHash, 17),
			BestLR:       trainsim.DefaultLearningRates[int(candHash)%len(trainsim.DefaultLearningRates)],
		}
		entry.index[c.Name()] = i
	}
	sim, err := trainsim.New(trainsim.Config{
		Models: models,
		Tasks:  []trainsim.TaskSpec{{Name: jobID, Difficulty: difficulty, SizeFactor: 0.5 + 2*frac(jobHash, 19)}},
		Seed:   st.Seed ^ jobHash,
	})
	if err != nil {
		return fmt.Errorf("server: building simulator for %q: %w", jobID, err)
	}
	entry.sim = sim
	st.sims[jobID] = entry
	return nil
}

// lookup resolves a (job, candidate) pair to its simulator and model index.
func (st *SimTrainer) lookup(jobID string, c templates.Candidate) (*simEntry, int, error) {
	st.mu.RLock()
	entry, ok := st.sims[jobID]
	st.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("server: job %q not registered", jobID)
	}
	idx, ok := entry.index[c.Name()]
	if !ok {
		return nil, 0, fmt.Errorf("server: job %q has no candidate %q", jobID, c.Name())
	}
	return entry, idx, nil
}

// Train implements Trainer. It is safe for concurrent use: simulator runs
// are deterministic pure functions of (job, candidate) and the pool does its
// own locking.
func (st *SimTrainer) Train(jobID string, c templates.Candidate) (float64, float64, error) {
	entry, idx, err := st.lookup(jobID, c)
	if err != nil {
		return 0, 0, err
	}
	res := entry.sim.Train(0, idx)
	if st.Delay > 0 {
		time.Sleep(st.Delay)
	}
	if st.Pool != nil {
		if st.Devices > 0 {
			st.Pool.RunOneGPUAmong(jobID+"/"+c.Name(), res.Cost, st.Devices)
		} else {
			st.Pool.RunSingleDevice(jobID+"/"+c.Name(), res.Cost)
		}
	}
	return res.Accuracy, res.Cost, nil
}

// EstimateCost implements Trainer.
func (st *SimTrainer) EstimateCost(jobID string, c templates.Candidate) (float64, error) {
	entry, idx, err := st.lookup(jobID, c)
	if err != nil {
		return 0, err
	}
	return entry.sim.Cost(0, idx), nil
}

func frac(h int64, salt int64) float64 {
	x := uint64(h) * uint64(salt*2654435761+1)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x%1000003) / 1000003
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// Job is one submitted ease.ml task. The submitting user's name (Name) is
// the job's tenant identity for admission control: quotas, rate limits and
// budgets aggregate over all jobs sharing a name.
type Job struct {
	ID         string
	Name       string
	Program    dsl.Program
	Template   string
	Candidates []templates.Candidate
	Julia      string
	Python     string

	// Class is the tenant's admission service class, fixed at submission
	// (standard when no admission controller is configured). It drives
	// weighted fair sharing and the preemption rules.
	Class admission.Class

	// mu is the per-job lock: it guards the tenant (bandit posterior and
	// σ̃ recurrence), the failure flag, the abandoned list and the budget /
	// done markers. See the package comment for the lock order.
	mu        sync.Mutex
	tenant    *core.Tenant
	failed    string   // non-empty: the job is failed and excluded from scheduling
	abandoned []string // candidate names retired after repeated training failures
	// budgetExhausted marks a job drained because its tenant's GPU budget
	// ran out: every untried arm was retired and late lease settlements
	// bounce off ErrLeaseConflict.
	budgetExhausted bool
	// doneNotified dedupes the admission controller's JobDone callback: a
	// job frees its concurrent-job slot exactly once, whether it drained,
	// failed or was budget-exhausted.
	doneNotified bool

	store *storage.TaskStore
}

// Scheduler owns the job set and drives multi-tenant model selection over
// it. It is the in-process core of the HTTP server and is usable directly
// (examples drive it without HTTP). See the package comment for the locking
// discipline.
type Scheduler struct {
	store   *storage.Store
	trainer Trainer
	picker  core.UserPicker
	server  string // advertised server address for codegen

	// jobsMu guards the job set. jobs is append-only.
	jobsMu sync.RWMutex
	jobs   []*Job
	byID   map[string]*Job
	nextID int

	// coordMu is the cross-job coordinator lock.
	coordMu   sync.Mutex
	leases    map[int]*Lease
	nextLease int
	rounds    int

	// selIdx is the cross-job selection index (see selindex.go): per-job
	// dirty epochs, the lazily-repaired gap heap and the persistent
	// hallucination shadows. Guarded by coordMu. legacySelection switches
	// PickWork back to the deep-clone-per-batch baseline — kept for the
	// pick-path benchmarks and equivalence tests.
	selIdx          selectionIndex
	legacySelection bool

	// leaseTTL makes leases expire when their holder goes silent (0 = never,
	// the mode without a coordinator); now is the injectable clock expiry runs
	// on. Both are set before serving traffic and read under coordMu.
	leaseTTL time.Duration
	now      func() time.Time

	// adm is the optional admission controller (SetAdmission): quota,
	// rate-limit and budget decisions for every tenant. Set before serving
	// traffic; nil means everything is admitted at standard priority.
	adm *admission.Controller

	log *storage.Log // nil: in-memory only

	// decisions is the decision-provenance ring (see provenance.go). The
	// zero value is ready; it does its own leaf locking.
	decisions decisionRing
}

// NewScheduler creates a scheduler with the given trainer and user picker
// (nil picker defaults to ease.ml's HYBRID policy).
func NewScheduler(trainer Trainer, picker core.UserPicker, serverAddr string) *Scheduler {
	if picker == nil {
		picker = core.NewHybridPicker()
	}
	if serverAddr == "" {
		serverAddr = "http://localhost:9000"
	}
	return &Scheduler{
		store:   storage.NewStore(),
		trainer: trainer,
		picker:  picker,
		byID:    make(map[string]*Job),
		server:  serverAddr,
		leases:  make(map[int]*Lease),
		now:     time.Now,
	}
}

// SetLeaseTTL makes every subsequently picked lease expire unless its
// holder heartbeats within d (0 restores never-expiring leases). The fleet
// coordinator sets it before serving any worker.
func (sc *Scheduler) SetLeaseTTL(d time.Duration) {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	sc.leaseTTL = d
}

// SetClock replaces the clock lease expiry runs on — tests drive expiry
// deterministically instead of sleeping. Set before serving traffic.
func (sc *Scheduler) SetClock(now func() time.Time) {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	sc.now = now
}

// AssignLease records which worker holds an outstanding lease, so expiry
// can attribute the reclaimed work. It errors (ErrLeaseConflict) on a lease
// that is not outstanding or already settling.
func (sc *Scheduler) AssignLease(l *Lease, worker string) error {
	if l == nil {
		return fmt.Errorf("server: nil lease")
	}
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	stored, ok := sc.leases[l.ID]
	if !ok || stored != l || stored.settling {
		return fmt.Errorf("server: assigning lease %d (%s/%s): %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	stored.Worker = worker
	return nil
}

// HeartbeatLease refreshes an outstanding lease's expiry deadline. It
// errors (ErrLeaseConflict) on an unknown lease id — the holder learns its
// lease was reclaimed and should abort the run.
func (sc *Scheduler) HeartbeatLease(id int) error {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	stored, ok := sc.leases[id]
	if !ok {
		return fmt.Errorf("server: heartbeat for lease %d: %w", id, ErrLeaseConflict)
	}
	now := sc.now()
	stored.LastHeartbeat = now
	if sc.leaseTTL > 0 {
		stored.Expires = now.Add(sc.leaseTTL)
	}
	return nil
}

// ExpireLeases reclaims every worker-assigned lease whose deadline has
// passed: the lease leaves the table, so its arm re-enters GP-BUCB
// selection — exactly once, because any late Complete/Release for it now
// fails with ErrLeaseConflict. Leases mid-settlement are left alone (their
// result is landing), as are unassigned leases: the only ones are
// RunRound's, which train synchronously with no heartbeat to keep them
// alive, so expiry must never reclaim one mid-training.
// With a WAL attached each expiry is logged, so the operational history
// survives a crash. It returns the expired leases for registry
// bookkeeping.
func (sc *Scheduler) ExpireLeases() ([]*Lease, error) {
	sc.coordMu.Lock()
	var expired []*Lease
	if sc.leaseTTL > 0 {
		now := sc.now()
		for id, l := range sc.leases {
			if !l.settling && l.Worker != "" && !l.Expires.IsZero() && l.Expires.Before(now) {
				delete(sc.leases, id)
				expired = append(expired, l)
			}
		}
	}
	sc.coordMu.Unlock()
	for _, l := range expired {
		finishLeaseSpan(l, "expired", nil)
	}
	if sc.log != nil {
		for _, l := range expired {
			if err := sc.log.AppendLeaseExpired(l.JobID, l.Candidate.Name(), l.Worker); err != nil {
				return expired, fmt.Errorf("server: logging expiry of %s/%s: %w", l.JobID, l.Candidate.Name(), err)
			}
		}
	}
	return expired, nil
}

// Trainer returns the trainer the scheduler was built with, so in-process
// workers can run the work they lease.
func (sc *Scheduler) Trainer() Trainer { return sc.trainer }

// SetLog attaches a write-ahead log: every subsequent state mutation
// appends an event before acknowledging. Attach before serving traffic
// (there is no synchronization with in-flight operations).
func (sc *Scheduler) SetLog(l *storage.Log) { sc.log = l }

// Persistent reports whether a write-ahead log is attached.
func (sc *Scheduler) Persistent() bool { return sc.log != nil }

// Submit parses and registers a new job: the submission passes tenant
// admission (rate limit and concurrent-job cap, when a controller is
// configured), the program is validated, matched against the Figure 4
// templates, candidates are generated (including normalization variants
// for image-shaped inputs), code is generated, and a GP-UCB tenant is
// created for the scheduler. With a WAL attached the submission is logged
// before it becomes visible. Over-quota submissions fail with an error
// wrapping admission.ErrQuotaExceeded (HTTP 429).
func (sc *Scheduler) Submit(name, programSrc string) (*Job, error) {
	// Admission before the expensive build: a tenant over its rate limit
	// must not be able to burn candidate generation and cost estimation.
	// The job slot is refunded on any later failure.
	if sc.adm != nil {
		// A budget-exhausted tenant cannot buy more training by submitting
		// fresh jobs: Budget bounds the tenant's *total* cost, and
		// enforceBudget only drains at completion time — without this gate
		// each new job would train up to the in-flight concurrency worth of
		// candidates before the drain caught up.
		if budget := sc.adm.Budget(name); budget > 0 && sc.TenantCost(name) >= budget {
			err := fmt.Errorf("server: submitting for tenant %q: GPU budget %g exhausted: %w",
				name, budget, admission.ErrQuotaExceeded)
			sc.emitAdmissionDecision(name, "rejected", err)
			return nil, err
		}
		if err := sc.adm.AdmitJob(name); err != nil {
			err = fmt.Errorf("server: submitting for tenant %q: %w", name, err)
			sc.emitAdmissionDecision(name, "rejected", err)
			return nil, err
		}
	}
	job, err := sc.submitAdmitted(name, programSrc)
	if err != nil && sc.adm != nil {
		sc.adm.JobDone(name) // refund the slot of a submission that never published
	}
	if err == nil && sc.adm != nil {
		sc.emitAdmissionDecision(name, "granted", nil)
	}
	return job, err
}

// submitAdmitted is Submit past the admission gate.
func (sc *Scheduler) submitAdmitted(name, programSrc string) (*Job, error) {
	prog, err := dsl.ParseCached(programSrc)
	if err != nil {
		return nil, err
	}

	// Reserve the id briefly, then build outside the lock: candidate
	// generation, codegen and per-candidate cost estimation are the
	// expensive part of a submission, and holding jobsMu through them
	// would stall every concurrent job lookup. Ids are never reused, so a
	// failed build just skips one.
	sc.jobsMu.Lock()
	sc.nextID++
	id := fmt.Sprintf("job-%04d", sc.nextID)
	sc.jobsMu.Unlock()

	job, err := sc.buildJob(id, name, prog)
	if err != nil {
		return nil, err
	}

	sc.jobsMu.Lock()
	defer sc.jobsMu.Unlock()
	job.tenant.ID = len(sc.jobs)
	if sc.log != nil {
		// Log before publishing, inside jobsMu: a submission that cannot
		// be made durable is not acknowledged, and compaction's capture
		// (which reads the job set) can never observe a published job
		// whose event it is about to truncate. The leaked trainer entry
		// of a failed append is harmless.
		if err := sc.log.AppendJobSubmitted(id, name, prog.String()); err != nil {
			return nil, fmt.Errorf("server: logging submission of %q: %w", id, err)
		}
	}
	sc.jobs = append(sc.jobs, job)
	sc.byID[id] = job
	return job, nil
}

// buildJob constructs a Job for an already-parsed program under a fixed id:
// trainer registration, task storage, cost estimation and the GP-UCB
// tenant (its index is fixed at publish time). It takes no scheduler
// locks; the trainer and store do their own locking.
func (sc *Scheduler) buildJob(id, name string, prog dsl.Program) (*Job, error) {
	cands, tpl, err := templates.GenerateCached(prog)
	if err != nil {
		return nil, err
	}
	if reg, ok := sc.trainer.(*SimTrainer); ok {
		if err := reg.Register(id, cands); err != nil {
			return nil, err
		}
	}
	ts, ok := sc.store.Task(id)
	if !ok {
		if ts, err = sc.store.CreateTask(id); err != nil {
			return nil, err
		}
	}

	costs := make([]float64, len(cands))
	features := make([][]float64, len(cands))
	for i, c := range cands {
		cost, err := sc.trainer.EstimateCost(id, c)
		if err != nil {
			return nil, fmt.Errorf("server: estimating cost of %q: %w", c.Name(), err)
		}
		costs[i] = cost
		features[i] = candidateFeature(c)
	}
	process := gp.NewFromFeatures(gp.RBF{Variance: 0.05, LengthScale: 0.5}, features, 1e-4)
	b := bandit.New(process, bandit.Config{
		Costs:     costs,
		CostAware: true,
		BetaArms:  32 * len(cands), // headroom for jobs arriving later
		Mean0:     0.6,
	})
	class := admission.ClassStandard
	if sc.adm != nil {
		class = sc.adm.ClassOf(name)
	}
	tenant := core.NewTenant(0, id, b) // index assigned at publish
	tenant.Class = string(class)
	tenant.Weight = class.Weight()
	return &Job{
		ID:         id,
		Name:       name,
		Program:    prog,
		Template:   tpl.Name,
		Candidates: cands,
		Julia:      codegen.JuliaTypes(prog),
		Python:     codegen.PythonLibrary(id, sc.server, prog),
		Class:      class,
		tenant:     tenant,
		store:      ts,
	}, nil
}

// candidateFeature embeds a candidate for the GP kernel: a hash-derived
// model-family coordinate plus the normalization parameter. Candidates of
// the same base model cluster together, which is what lets one observation
// inform its normalization variants.
func candidateFeature(c templates.Candidate) []float64 {
	h := fnv.New64a()
	h.Write([]byte(c.Model))
	base := float64(h.Sum64()%1000) / 1000
	k := 0.0
	if c.Normalizer != nil {
		k = c.Normalizer.K
	}
	return []float64{base, k * 0.3}
}

// Job returns a job by id.
func (sc *Scheduler) Job(id string) (*Job, bool) {
	sc.jobsMu.RLock()
	defer sc.jobsMu.RUnlock()
	j, ok := sc.byID[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (sc *Scheduler) Jobs() []*Job {
	sc.jobsMu.RLock()
	defer sc.jobsMu.RUnlock()
	return append([]*Job(nil), sc.jobs...)
}

// jobsSnapshot returns the current job slice (append-only, so the returned
// slice is immutable) for a scheduling pass.
func (sc *Scheduler) jobsSnapshot() []*Job {
	sc.jobsMu.RLock()
	defer sc.jobsMu.RUnlock()
	return sc.jobs
}

// Rounds returns the number of completed scheduling rounds.
func (sc *Scheduler) Rounds() int {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	return sc.rounds
}

// ErrLeaseConflict marks lease-lifecycle conflicts: settling or releasing a
// lease that is no longer outstanding (double Complete, Complete after
// Release or after expiry) or one whose settlement is already in progress
// (workers racing on retries). HTTP surfaces map it to 409 Conflict so a
// retrying worker can tell "my result lost a race" from a server fault.
var ErrLeaseConflict = errors.New("lease conflict")

// ErrNoJob marks lookups of a job ID the scheduler does not know. HTTP
// surfaces map it to 404 Not Found so clients can tell a missing job from
// a malformed request.
var ErrNoJob = errors.New("no such job")

// errNoJob builds the canonical missing-job error for one ID.
func errNoJob(jobID string) error {
	return fmt.Errorf("server: no job %q: %w", jobID, ErrNoJob)
}

// Lease is one unit of leased work: a (job, candidate) pair the scheduler
// has picked but whose result has not been reported yet. A lease's arm is
// excluded from further selection until Complete or Release is called with
// it, so concurrent workers never train the same candidate twice.
type Lease struct {
	ID        int
	JobID     string
	Arm       int
	Candidate templates.Candidate
	// UCB is the (hallucinated-posterior) upper confidence bound the arm was
	// selected at; Complete feeds it into the σ̃ recurrence.
	UCB float64

	// Worker is the fleet worker the lease is assigned to; AssignLease sets
	// it. Every lease a worker holds, remote or in-process, has one; only
	// RunRound's synchronous lease stays unassigned. Guarded by coordMu
	// while the lease is outstanding.
	Worker string
	// Expires is the deadline after which ExpireLeases reclaims the lease;
	// zero means the lease never expires. Stamped at pick time when a TTL
	// is configured and refreshed by HeartbeatLease. Guarded by coordMu.
	Expires time.Time
	// LastHeartbeat is the last time the lease holder was heard from (pick
	// time, then every HeartbeatLease). Guarded by coordMu.
	LastHeartbeat time.Time

	// Trace is the lease's lifecycle trace ID, minted at pick time. It
	// travels with the lease through the fleet protocol (the wire lease
	// and the X-Easeml-Trace header) so coordinator and worker logs for
	// one lease correlate. Immutable after pick.
	Trace string

	// span is the lease's root lifecycle span, opened at selection and
	// closed with the terminal outcome (completed / released / abandoned /
	// expired / preempted / conflict). The pointer is set once before the
	// lease is published and never reassigned; Span itself is
	// concurrency-safe.
	span *telemetry.Span

	// settling marks a lease whose Complete/Abandon is in progress: the
	// lease stays in the table — keeping its arm excluded from selection —
	// until the bandit update lands, closing the window in which the arm
	// would be neither leased nor tried and could be leased twice. Guarded
	// by coordMu.
	settling bool
}

// RootSpanID returns the ID of the lease's root lifecycle span ("" for
// leases that predate span instrumentation). It ships over the fleet wire
// so a worker's run span parents into the coordinator's tree.
func (l *Lease) RootSpanID() string {
	if l.span == nil {
		return ""
	}
	return l.span.ID()
}

// InFlight returns the number of outstanding leases.
func (sc *Scheduler) InFlight() int {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	return len(sc.leases)
}

// Idle reports whether there is nothing left to train: no lease is
// outstanding and no job has a selectable candidate. Once it holds, only a
// new submission can create work; draining the in-process workers waits
// for it.
func (sc *Scheduler) Idle() bool {
	jobs := sc.jobsSnapshot()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	if len(sc.leases) > 0 {
		return false
	}
	for _, j := range jobs {
		j.mu.Lock()
		j.tenant.SetLeased(0)
		active := j.failed == "" && !j.budgetExhausted && j.tenant.Active()
		j.mu.Unlock()
		if active {
			return false
		}
	}
	return true
}

// PickWork is the first phase of the scheduler's two-phase API: it leases
// new (job, candidate) work items until maxInFlight leases are outstanding
// or no more work is available, and returns the newly created leases. Jobs
// are chosen by the configured core.UserPicker over the tenants that still
// have unleased untried candidates; within a job the candidate is chosen by
// GP-BUCB with the job's in-flight arms hallucinated (bandit.SelectBatch's
// scheme, applied incrementally), so parallel picks diversify.
//
// Every returned lease must eventually be handed back via Complete (with
// the training result) or Release (on failure or drain).
func (sc *Scheduler) PickWork(maxInFlight int) ([]*Lease, error) {
	if maxInFlight <= 0 {
		return nil, fmt.Errorf("server: maxInFlight %d must be positive", maxInFlight)
	}
	jobs := sc.jobsSnapshot()
	t0 := time.Now()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	coordAcquired := time.Now()

	inFlight := sc.inFlightArmsLocked()
	var shadows map[string]*bandit.GPUCB
	if sc.legacySelection {
		shadows = make(map[string]*bandit.GPUCB)
	}
	sweepT0 := time.Now()
	tenants, unlock := sc.lockForPicking(jobs, inFlight)
	defer unlock()
	// Lock wait is coordMu acquisition plus the per-job lock sweep —
	// the two places a pick batch can stall behind other work.
	lockWait := coordAcquired.Sub(t0) + time.Since(sweepT0)
	pickStageLockWait.Observe(lockWait)
	var picked []*Lease
	for len(sc.leases) < maxInFlight {
		l, err := sc.pickNextLocked(jobs, tenants, inFlight, shadows)
		if err != nil {
			return picked, err
		}
		if l == nil {
			break
		}
		picked = append(picked, l)
	}
	if len(picked) > 0 {
		// The batch's lock wait precedes every pick; attribute it to the
		// first lease's tree (once per batch, like the histogram).
		lw := telemetry.NewSpanAt(picked[0].Trace, picked[0].RootSpanID(), opPickLockWait, t0)
		lw.EndAt(t0.Add(lockWait))
	}
	telemetry.SlowOp("pick_work", time.Since(t0), "leases", len(picked), "jobs", len(jobs))
	return picked, nil
}

// lockForPicking acquires every job lock (in slice order, per the lock
// discipline) and builds the tenant slice with current leased counts —
// once per PickWork batch, not once per pick, so the O(J) lock sweep
// amortizes over the whole batch. Callers hold coordMu and must call
// unlock when the batch is done.
func (sc *Scheduler) lockForPicking(jobs []*Job, inFlight map[string][]int) ([]*core.Tenant, func()) {
	for _, j := range jobs {
		j.mu.Lock()
	}
	tenants := make([]*core.Tenant, len(jobs))
	for i, j := range jobs {
		j.tenant.SetLeased(len(inFlight[j.ID]))
		tenants[i] = j.tenant
	}
	return tenants, func() {
		for _, j := range jobs {
			j.mu.Unlock()
		}
	}
}

// SetLegacySelection toggles the deep-clone selection baseline: every
// PickWork batch rebuilds its hallucination shadows with full posterior
// clones (bandit.CloneShadow) and every pick runs the linear picker scan,
// exactly like the pre-index implementation. The selection index is
// dropped on every call, so the two modes can be compared on one scheduler
// (the benchmarks and equivalence tests do). Selection is bit-identical
// between the modes; only the cost differs.
func (sc *Scheduler) SetLegacySelection(legacy bool) {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	sc.legacySelection = legacy
	sc.selIdx.reset()
}

// SelectionStats snapshots the pick-path counters: the selection index's
// epoch/heap/shadow traffic plus the per-job bandit cache counters
// aggregated across the job set.
func (sc *Scheduler) SelectionStats() SelectionStats {
	sc.coordMu.Lock()
	stats := sc.selIdx.stats
	sc.coordMu.Unlock()
	for _, job := range sc.jobsSnapshot() {
		job.mu.Lock()
		bs := job.tenant.Bandit.CacheStats()
		job.mu.Unlock()
		stats.BanditCache.Select.Hits += bs.Select.Hits
		stats.BanditCache.Select.Misses += bs.Select.Misses
		stats.BanditCache.Select.Invalidations += bs.Select.Invalidations
		stats.BanditCache.Posterior.Hits += bs.Posterior.Hits
		stats.BanditCache.Posterior.Misses += bs.Posterior.Misses
		stats.BanditCache.Posterior.Invalidations += bs.Posterior.Invalidations
	}
	return stats
}

// inFlightArmsLocked collects the in-flight arms per job from the
// outstanding leases, each job's list ordered by lease grant time (lease
// ids are monotone). Grant order — not map iteration order — makes the
// hallucination sequence deterministic, and it is exactly the order in
// which a persistent index shadow applied its hallucinations, so a shadow
// rebuilt from this list reproduces a revived shadow bit for bit (the two
// selection modes, and reruns of the same seed, stay bit-identical).
// Callers must hold coordMu.
func (sc *Scheduler) inFlightArmsLocked() map[string][]int {
	byJob := make(map[string][]*Lease)
	for _, l := range sc.leases {
		byJob[l.JobID] = append(byJob[l.JobID], l)
	}
	inFlight := make(map[string][]int, len(byJob))
	for id, leases := range byJob {
		sort.Slice(leases, func(i, j int) bool { return leases[i].ID < leases[j].ID })
		arms := make([]int, len(leases))
		for i, l := range leases {
			arms[i] = l.Arm
		}
		inFlight[id] = arms
	}
	return inFlight
}

// pickNextLocked leases the next single work item, updating inFlight (and
// the picked tenant's leased count) in place. It returns (nil, nil) when
// no job has an untried, unleased arm, and an error when the picker
// violates its contract by choosing a blocked tenant. Callers hold coordMu
// and every job lock, with tenants built by lockForPicking — the picker
// reads scheduling state (σ̃, UCB gaps) across all tenants, while
// user-facing operations take none of these locks and stay responsive.
//
// With shadows == nil (the default, index mode) the pick runs through the
// cross-job selection index: oracle-capable pickers answer the greedy
// argmax from the lazily-repaired gap heap, re-scoring only jobs whose
// dirty epoch moved, and hallucination shadows persist on the index across
// calls — revived, checkpoint-rolled-back or extended to match the lease
// set, rebuilt only after an observation (an O(1) prefix-sharing snapshot,
// never a deep clone). A non-nil shadows map selects the legacy baseline:
// a per-batch map of deep posterior clones (bandit.CloneShadow) and the
// linear picker scan, exactly the pre-index behaviour. Both modes pick
// bit-identical arms.
func (sc *Scheduler) pickNextLocked(jobs []*Job, tenants []*core.Tenant, inFlight map[string][]int, shadows map[string]*bandit.GPUCB) (*Lease, error) {
	// The picker always sees the full tenant slice — stateful pickers
	// (HYBRID's freeze signature, round-robin's rotation) depend on stable
	// indices. Jobs whose untried arms are all leased out are excluded via
	// the tenants' leased counts, which Tenant.Active folds in. Failed
	// jobs had all their arms retired, so they read as exhausted.
	anyActive := false
	for _, t := range tenants {
		if t.Active() {
			anyActive = true
			break
		}
	}
	if !anyActive {
		return nil, nil
	}
	selectT0 := time.Now()
	defer pickStageSelect.ObserveSince(selectT0)
	indexed := shadows == nil
	var idx int
	if op, ok := sc.picker.(core.OraclePicker); indexed && ok {
		sc.selIdx.ensure(jobs)
		sc.selIdx.stats.OraclePicks++
		idx = op.PickWithOracle(tenants, sc.selIdx.oracle())
	} else {
		sc.selIdx.stats.LegacyPicks++
		idx = sc.picker.Pick(tenants)
	}
	repairDur := sc.selIdx.takeLastRepair()
	if idx < 0 || idx >= len(jobs) {
		return nil, fmt.Errorf("server: picker %s returned index %d with active tenants remaining", sc.picker.Name(), idx)
	}
	job := jobs[idx]
	if !job.tenant.Active() {
		// A silent nil here would let a faulty picker end scheduling with
		// untried candidates looking like a clean drain.
		return nil, fmt.Errorf("server: picker %s chose job %s, which has no selectable candidate", sc.picker.Name(), job.ID)
	}
	// With nothing in flight for the job, the hallucinated pick equals the
	// real bandit's (cached) SelectArm — the serialized hot path builds no
	// shadow at all. Otherwise the pick goes through a GP-BUCB shadow with
	// the in-flight arms hallucinated.
	var arm int
	var ucb float64
	var hallStart time.Time
	var hallDur time.Duration
	switch {
	case !indexed:
		if shadow, ok := shadows[job.ID]; ok {
			hallStart = time.Now()
			arm, ucb = shadow.SelectArm()
			shadow.Hallucinate(arm)
			hallDur = time.Since(hallStart)
			pickStageHallucinate.Observe(hallDur)
		} else if len(inFlight[job.ID]) == 0 {
			arm, ucb = job.tenant.Bandit.SelectArm()
		} else {
			hallStart = time.Now()
			shadow = job.tenant.Bandit.CloneShadow(inFlight[job.ID])
			shadows[job.ID] = shadow
			arm, ucb = shadow.SelectArm()
			shadow.Hallucinate(arm)
			hallDur = time.Since(hallStart)
			pickStageHallucinate.Observe(hallDur)
		}
	case len(inFlight[job.ID]) == 0:
		arm, ucb = job.tenant.Bandit.SelectArm()
	default:
		sc.selIdx.ensure(jobs)
		entry := &sc.selIdx.entries[idx]
		hallStart = time.Now()
		shadow := sc.selIdx.shadowFor(entry, job.tenant.Bandit, inFlight[job.ID])
		arm, ucb = shadow.SelectArm()
		sc.selIdx.hallucinate(entry, []int{arm})
		hallDur = time.Since(hallStart)
		pickStageHallucinate.Observe(hallDur)
	}
	if arm < 0 {
		// Cannot happen for an Active tenant; surface it rather than loop.
		return nil, fmt.Errorf("server: job %s reported active but selected no arm", job.ID)
	}
	leasedBefore := len(inFlight[job.ID])
	inFlight[job.ID] = append(inFlight[job.ID], arm)
	job.tenant.SetLeased(len(inFlight[job.ID]))
	sc.nextLease++
	l := &Lease{ID: sc.nextLease, JobID: job.ID, Arm: arm, Candidate: job.Candidates[arm], UCB: ucb,
		Trace: telemetry.NewTraceID()}
	leaseTraces.Inc()
	if sc.leaseTTL > 0 {
		now := sc.now()
		l.LastHeartbeat = now
		l.Expires = now.Add(sc.leaseTTL)
	}
	sc.emitPickProvenance(l, job, job.tenant.Bandit.UCBSurface(), leasedBefore, len(jobs), selectT0, hallStart, hallDur, repairDur)
	sc.leases[l.ID] = l
	sc.selIdx.stats.Picks++
	return l, nil
}

// beginSettle marks an outstanding lease as settling, erroring on a lease
// that is not outstanding (double completion, or completion after Release)
// or already settling. The lease stays in the table so its arm remains
// excluded from PickWork until endSettle.
func (sc *Scheduler) beginSettle(l *Lease) error {
	if l == nil {
		return fmt.Errorf("server: nil lease")
	}
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	stored, ok := sc.leases[l.ID]
	if !ok || stored != l {
		return fmt.Errorf("server: lease %d (%s/%s) is not outstanding: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	if stored.settling {
		return fmt.Errorf("server: lease %d (%s/%s) is already being settled: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	stored.settling = true
	return nil
}

// endSettle drops a settling lease from the table and dirties the job's
// selection-index entry (the lease set — and possibly the bandit, on the
// abandon/failure paths that call this — changed).
func (sc *Scheduler) endSettle(l *Lease) {
	sc.coordMu.Lock()
	delete(sc.leases, l.ID)
	sc.selIdx.markDirty(l.JobID)
	sc.coordMu.Unlock()
}

// Complete is the second phase of the two-phase API: it reports the training
// result for a leased work item, feeding the observation into the job's
// bandit and σ̃ recurrence and recording the model (durably, when a WAL is
// attached). The global round counter advances in completion order. It
// errors on a lease that is not outstanding, and a posterior update that
// fails on an ill-conditioned covariance fails the job — retiring it from
// scheduling — instead of killing the server.
func (sc *Scheduler) Complete(l *Lease, accuracy, cost float64) error {
	settleT0 := time.Now()
	if err := sc.beginSettle(l); err != nil {
		// A conflicting settle still leaves evidence: a zero-length settle
		// span (the root span, if any, was closed by the terminal path that
		// won the race).
		if l != nil && l.Trace != "" {
			s := telemetry.NewSpanAt(l.Trace, l.RootSpanID(), opSettle, settleT0)
			s.SetAttr("outcome", "conflict")
			s.Fail(err)
			s.End()
		}
		return err
	}
	settle := telemetry.NewSpanAt(l.Trace, l.RootSpanID(), opSettle, settleT0)
	fail := func(outcome string, err error) error {
		settle.SetAttr("outcome", outcome)
		settle.Fail(err)
		settle.End()
		finishLeaseSpan(l, outcome, err)
		return err
	}
	job, ok := sc.Job(l.JobID)
	if !ok {
		sc.endSettle(l)
		return fail("error", fmt.Errorf("server: lease %d refers to unknown job %s", l.ID, l.JobID))
	}

	job.mu.Lock()
	if job.failed != "" {
		job.mu.Unlock()
		sc.endSettle(l)
		return fail("failed", fmt.Errorf("server: job %s is failed (%s); dropping result for %s", l.JobID, job.failed, l.Candidate.Name()))
	}
	if job.budgetExhausted {
		// Graceful drain: the tenant's budget ran out while this run was in
		// flight. The arm is already retired; the late result bounces off
		// the same conflict surface as an expired lease, so workers drop it.
		job.mu.Unlock()
		sc.endSettle(l)
		return fail("conflict", fmt.Errorf("server: job %s drained on budget exhaustion; dropping result for %s: %w",
			l.JobID, l.Candidate.Name(), ErrLeaseConflict))
	}
	if job.tenant.Bandit.Tried(l.Arm) {
		job.mu.Unlock()
		sc.endSettle(l)
		return fail("conflict", fmt.Errorf("server: lease %d arm %d of %s already observed: %w", l.ID, l.Arm, l.JobID, ErrLeaseConflict))
	}
	if err := job.tenant.Bandit.Observe(l.Arm, accuracy); err != nil {
		sc.failJobLocked(job, err)
		job.mu.Unlock()
		sc.endSettle(l)
		return fail("failed", fmt.Errorf("server: job %s failed: %w", l.JobID, err))
	}
	job.tenant.RecordObservation(l.UCB, accuracy)
	if job.tenant.Bandit.Exhausted() {
		sc.markJobDoneLocked(job) // every candidate tried: the job drained
	}
	job.mu.Unlock()

	// The arm is Tried now, so the lease can be dropped without the arm
	// ever being selectable in between; claim the round in the same
	// critical section. The observation moved the job's posterior and σ̃,
	// so its selection-index entry is dirtied here too.
	sc.coordMu.Lock()
	delete(sc.leases, l.ID)
	sc.rounds++
	round := sc.rounds
	sc.selIdx.markDirty(l.JobID)
	sc.coordMu.Unlock()

	rec := storage.ModelRecord{
		Name:     l.Candidate.Name(),
		Accuracy: accuracy,
		Cost:     cost,
		Round:    round,
	}
	job.store.RecordModel(rec)
	if sc.log != nil {
		walT0 := time.Now()
		wspan := telemetry.NewSpanAt(l.Trace, settle.ID(), opWALAppend, walT0)
		if err := sc.log.AppendModelRecorded(l.JobID, rec); err != nil {
			wspan.Fail(err)
			wspan.End()
			return fail("error", fmt.Errorf("server: logging result for %s/%s: %w", l.JobID, rec.Name, err))
		}
		if st := sc.log.Stats(); st.Seq > 0 {
			wspan.SetAttr("wal_seq", strconv.FormatUint(st.Seq, 10))
		}
		wspan.End()
		pickStageWALAppend.ObserveSince(walT0)
	}
	settle.SetAttr("outcome", "completed")
	settle.End()
	finishLeaseSpan(l, "completed", nil)
	// The observation paid its arm's cost into the bandit; check the
	// tenant's budget after the result is durable, so a budget-drained job
	// never loses an acknowledged model record.
	if err := sc.enforceBudget(job.Name); err != nil {
		return fmt.Errorf("server: completing %s/%s: %w", l.JobID, rec.Name, err)
	}
	return nil
}

// failJobLocked marks a job as failed and retires all its untried arms, so
// pickers see it as exhausted and it drops out of scheduling. One
// ill-conditioned job must never take the whole service down. Callers hold
// job.mu.
func (sc *Scheduler) failJobLocked(job *Job, cause error) {
	job.failed = cause.Error()
	for arm := 0; arm < job.tenant.Bandit.NumArms(); arm++ {
		job.tenant.Bandit.Retire(arm) // no-op for tried arms
	}
	sc.markJobDoneLocked(job)
}

// markJobDoneLocked releases the job's admission slot exactly once — the
// job will never train another candidate (drained, failed, or
// budget-exhausted). Callers hold job.mu; the admission controller's
// mutex is a leaf, so calling into it under the job lock is safe.
func (sc *Scheduler) markJobDoneLocked(job *Job) {
	if job.doneNotified {
		return
	}
	job.doneNotified = true
	if sc.adm != nil {
		sc.adm.JobDone(job.Name)
	}
}

// Abandon settles a lease for a candidate that cannot be trained (e.g. it
// failed repeatedly): the arm is retired from selection without recording
// an observation, so neither the GP posterior nor the job's model history
// is polluted with a fabricated result. The round counter does not
// advance. It errors on a lease that is not outstanding.
func (sc *Scheduler) Abandon(l *Lease) error {
	if err := sc.beginSettle(l); err != nil {
		return err
	}
	job, ok := sc.Job(l.JobID)
	if !ok {
		sc.endSettle(l)
		return fmt.Errorf("server: lease %d refers to unknown job %s", l.ID, l.JobID)
	}
	job.mu.Lock()
	fresh := !job.tenant.Bandit.Tried(l.Arm)
	if fresh {
		job.tenant.Bandit.Retire(l.Arm)
		job.abandoned = append(job.abandoned, l.Candidate.Name())
		if job.tenant.Bandit.Exhausted() {
			sc.markJobDoneLocked(job)
		}
	}
	job.mu.Unlock()
	sc.endSettle(l) // the arm is retired (Tried) now, never re-selectable
	finishLeaseSpan(l, "abandoned", nil)
	if fresh && sc.log != nil {
		if err := sc.log.AppendCandidateAbandoned(l.JobID, l.Candidate.Name()); err != nil {
			return fmt.Errorf("server: logging abandonment of %s/%s: %w", l.JobID, l.Candidate.Name(), err)
		}
	}
	return nil
}

// Release hands a lease back untrained (worker failure or departure);
// the arm becomes selectable again. It errors on a lease that is not
// outstanding or mid-settlement.
func (sc *Scheduler) Release(l *Lease) error {
	if l == nil {
		return fmt.Errorf("server: nil lease")
	}
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	stored, ok := sc.leases[l.ID]
	if !ok || stored != l {
		return fmt.Errorf("server: lease %d (%s/%s) is not outstanding: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	if stored.settling {
		return fmt.Errorf("server: lease %d (%s/%s) is being settled: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	// No selection-index invalidation: a release changes only the lease
	// set, which the next pick absorbs by rolling the job's shadow back to
	// the matching checkpoint — the bandit (and so the cached gap score)
	// is untouched.
	delete(sc.leases, l.ID)
	finishLeaseSpan(l, "released", nil)
	return nil
}

// RunRound executes one multi-tenant scheduling round: pick a job, pick its
// next candidate, train it, and record the result — the serialized
// single-device path, built on the same two-phase API the fleet
// coordinator drives concurrently. It returns false when no job has untried candidates.
func (sc *Scheduler) RunRound() (bool, error) {
	jobs := sc.jobsSnapshot()
	sc.coordMu.Lock()
	var shadows map[string]*bandit.GPUCB
	if sc.legacySelection {
		shadows = make(map[string]*bandit.GPUCB)
	}
	inFlight := sc.inFlightArmsLocked()
	tenants, unlock := sc.lockForPicking(jobs, inFlight)
	l, err := sc.pickNextLocked(jobs, tenants, inFlight, shadows)
	unlock()
	sc.coordMu.Unlock()
	if err != nil {
		return false, err
	}
	if l == nil {
		return false, nil
	}

	// Train outside all locks: this is the long-running part.
	acc, cost, err := sc.trainer.Train(l.JobID, l.Candidate)
	if err != nil {
		_ = sc.Release(l)
		return false, fmt.Errorf("server: training %s/%s: %w", l.JobID, l.Candidate.Name(), err)
	}
	return true, sc.Complete(l, acc, cost)
}

// RunRounds executes up to n rounds, stopping early when all jobs are
// exhausted. It returns the number of rounds that ran.
func (sc *Scheduler) RunRounds(n int) (int, error) {
	ran := 0
	for ran < n {
		ok, err := sc.RunRound()
		if err != nil {
			return ran, err
		}
		if !ok {
			break
		}
		ran++
	}
	return ran, nil
}

// Feed stores a supervision example for a job (durably, when a WAL is
// attached). It takes no scheduler-wide lock: schema validation reads
// immutable job fields and the example lands in the per-task store. With
// an admission controller configured, the tenant's rate limit applies;
// over-quota feeds fail with an error wrapping admission.ErrQuotaExceeded
// (HTTP 429).
func (sc *Scheduler) Feed(jobID string, input, output []float64) (int, error) {
	job, ok := sc.Job(jobID)
	if !ok {
		return 0, errNoJob(jobID)
	}
	if sc.adm != nil {
		if err := sc.adm.AdmitOp(job.Name); err != nil {
			return 0, fmt.Errorf("server: feeding %q: %w", jobID, err)
		}
	}
	if want := job.Program.Input.TotalElements(); len(input) != want {
		return 0, fmt.Errorf("server: input has %d elements, schema wants %d", len(input), want)
	}
	if want := job.Program.Output.TotalElements(); len(output) != want {
		return 0, fmt.Errorf("server: output has %d elements, schema wants %d", len(output), want)
	}
	id := job.store.Feed(input, output)
	if sc.log != nil {
		if err := sc.log.AppendExampleFed(jobID, id, input, output); err != nil {
			return 0, fmt.Errorf("server: logging example for %q: %w", jobID, err)
		}
	}
	return id, nil
}

// Refine toggles a supervision example for a job (durably, when a WAL is
// attached).
func (sc *Scheduler) Refine(jobID string, exampleID int, enabled bool) error {
	job, ok := sc.Job(jobID)
	if !ok {
		return errNoJob(jobID)
	}
	if err := job.store.Refine(exampleID, enabled); err != nil {
		return err
	}
	if sc.log != nil {
		if err := sc.log.AppendExampleRefined(jobID, exampleID, enabled); err != nil {
			return fmt.Errorf("server: logging refine for %q: %w", jobID, err)
		}
	}
	return nil
}

// Infer applies the best model so far to an input. The simulated model
// produces a deterministic pseudo-prediction whose entries depend on the
// input and the model name; it returns an error before the first model
// completes (the user has no model yet). Batched and streaming serving
// live in serving.go on the same InferSession.
func (sc *Scheduler) Infer(jobID string, input []float64) ([]float64, string, error) {
	sess, err := sc.NewInferSession(jobID)
	if err != nil {
		return nil, "", err
	}
	inferRequests.With("single").Inc()
	out, err := sess.Apply(input)
	if err != nil {
		return nil, "", err
	}
	return out, sess.Model, nil
}

// Status summarizes a job for the status endpoint.
type Status struct {
	ID            string `json:"id"`
	Name          string `json:"name"`
	Template      string `json:"template"`
	Class         string `json:"class,omitempty"` // admission service class
	NumCandidates int    `json:"num_candidates"`
	Trained       int    `json:"trained"`
	Examples      int    `json:"examples"`
	Enabled       int    `json:"enabled"`
	// CostUsed is the total GPU cost this job's bandit has paid.
	CostUsed float64 `json:"cost_used"`
	// BudgetExhausted marks a job drained because its tenant's budget ran
	// out; remaining candidates were retired.
	BudgetExhausted bool                  `json:"budget_exhausted,omitempty"`
	Failed          string                `json:"failed,omitempty"` // non-empty: job retired with this cause
	Abandoned       []string              `json:"abandoned,omitempty"`
	Best            *storage.ModelRecord  `json:"best,omitempty"`
	Models          []storage.ModelRecord `json:"models"`
}

// Snapshot checkpoints the shared storage (fed examples, refine state and
// completed model records for every job) as JSON — the legacy manual
// checkpoint surface. With a WAL attached, prefer Compact, which folds the
// log into the on-disk snapshot.
func (sc *Scheduler) Snapshot(w io.Writer) error {
	return sc.store.Snapshot(w)
}

// Restore replays a storage snapshot into this scheduler: for every job id
// present in both the snapshot and the current job set (jobs are resubmitted
// from their programs on restart, which reproduces the same ids and
// candidate surfaces), the recorded examples and model results are loaded
// and each completed run is fed back into the job's bandit so the GP
// posterior resumes where the previous process stopped. (The WAL path —
// OpenDir + Recover — supersedes this for -data-dir deployments: it also
// restores the job definitions themselves.)
//
// It must be called before any scheduling round; it returns an error when a
// snapshot record does not match the job's candidate set.
func (sc *Scheduler) Restore(r io.Reader) error {
	snap, err := storage.LoadStore(r)
	if err != nil {
		return err
	}
	// Resolve jobs before taking coordMu, honouring the jobsMu→coordMu
	// lock order.
	jobsByID := make(map[string]*Job, len(snap.TaskIDs()))
	for _, id := range snap.TaskIDs() {
		job, ok := sc.Job(id)
		if !ok {
			return fmt.Errorf("server: snapshot contains unknown job %q (resubmit jobs before restoring)", id)
		}
		jobsByID[id] = job
	}
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	if sc.rounds != 0 {
		return fmt.Errorf("server: Restore after %d rounds; restore into a fresh scheduler", sc.rounds)
	}
	if len(sc.leases) != 0 {
		return fmt.Errorf("server: Restore with %d leases outstanding; stop the workers first", len(sc.leases))
	}
	// The replay rewrites every bandit; any selection-index state built by
	// earlier (empty) picks is stale wholesale.
	sc.selIdx.reset()
	for _, id := range snap.TaskIDs() {
		job := jobsByID[id]
		ts, _ := snap.Task(id)
		job.mu.Lock()
		err := sc.replayTaskLocked(job, ts)
		job.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayTaskLocked loads a task's examples and model records into a job and
// feeds each completed run back into its bandit. Callers hold job.mu and
// coordMu (for the round counter).
func (sc *Scheduler) replayTaskLocked(job *Job, ts *storage.TaskStore) error {
	candidateIdx := make(map[string]int, len(job.Candidates))
	for i, c := range job.Candidates {
		candidateIdx[c.Name()] = i
	}
	// Re-feed examples preserving ids and refine state. In the WAL
	// recovery path the job was built over the recovered store, so ts IS
	// job.store and the examples are already in place.
	if ts != job.store {
		for _, ex := range ts.Examples() {
			job.store.PutExample(ex)
		}
	}
	// Replay completed runs into the bandit and the model records. A
	// posterior update that fails mid-replay (the job is ill-conditioned
	// on replay too) retires the job but keeps recording its model
	// history — recorded results must never silently vanish.
	failed := job.failed != ""
	for _, m := range ts.Models() {
		arm, ok := candidateIdx[m.Name]
		if !ok {
			return fmt.Errorf("server: snapshot run %q does not match a candidate of %q", m.Name, job.ID)
		}
		if !failed {
			if job.tenant.Bandit.Tried(arm) {
				return fmt.Errorf("server: snapshot replays candidate %q of %q twice", m.Name, job.ID)
			}
			ucb := job.tenant.Bandit.UCB(arm)
			if err := job.tenant.Bandit.Observe(arm, m.Accuracy); err != nil {
				sc.failJobLocked(job, err)
				failed = true
			} else {
				job.tenant.RecordObservation(ucb, m.Accuracy)
			}
		}
		if !job.store.HasModel(m.Name) {
			job.store.RecordModel(m)
		}
		if m.Round > sc.rounds {
			sc.rounds = m.Round
		}
	}
	return nil
}

// Status reports a job's current state.
func (sc *Scheduler) Status(jobID string) (Status, error) {
	job, ok := sc.Job(jobID)
	if !ok {
		return Status{}, errNoJob(jobID)
	}
	st := Status{
		ID:            job.ID,
		Name:          job.Name,
		Template:      job.Template,
		Class:         string(job.Class),
		NumCandidates: len(job.Candidates),
		Models:        job.store.Models(),
		Examples:      len(job.store.Examples()),
		Enabled:       job.store.EnabledCount(),
	}
	job.mu.Lock()
	st.Failed = job.failed
	st.Abandoned = append([]string(nil), job.abandoned...)
	st.CostUsed = job.tenant.Bandit.CumulativeCost()
	st.BudgetExhausted = job.budgetExhausted
	job.mu.Unlock()
	st.Trained = len(st.Models)
	if best, ok := job.store.Best(); ok {
		st.Best = &best
	}
	return st, nil
}
