package server

import (
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Pick-path stage histograms: the per-stage breakdown of where a pick
// spends its time. lock_wait is PickWork's coordinator-lock acquisition
// plus the O(J) job-lock sweep (once per batch); index_repair is the
// selection index catching up on dirty jobs before the oracle argmax
// (once per oracle pick); select is one full pickNextLocked decision;
// hallucinate is the GP-BUCB shadow work inside it (only picks with
// in-flight arms pay it). The WAL half of the settle path is
// pick_stage_wal_append (the model-record append in Complete) plus the
// storage-level wal_append/wal_fsync families.
var (
	pickStageLockWait = telemetry.Default().Histogram("easeml_pick_stage_lock_wait_seconds",
		"Pick-path lock wait: coordMu acquisition plus the per-job lock sweep, once per PickWork batch.")
	pickStageIndexRepair = telemetry.Default().Histogram("easeml_pick_stage_index_repair_seconds",
		"Selection-index repair: re-scoring jobs whose dirty epoch moved, before an oracle argmax answers. Only repairs with dirty work observe.")
	pickStageSelect = telemetry.Default().Histogram("easeml_pick_stage_select_seconds",
		"One pickNextLocked decision end to end: picker argmax, candidate selection, lease creation.")
	pickStageHallucinate = telemetry.Default().Histogram("easeml_pick_stage_hallucinate_seconds",
		"GP-BUCB hallucination-shadow work within a pick (shadow revive/build, SelectArm, Hallucinate).")
	pickStageWALAppend = telemetry.Default().Histogram("easeml_pick_stage_wal_append_seconds",
		"The settle path's WAL append: logging the model record during Complete.")
	leaseTraces = telemetry.Default().Counter("easeml_lease_traces_minted_total",
		"Trace IDs minted for leases at pick time.")
)

// adminRoutes is the closed set of admin paths RouteLabel passes through
// verbatim. Anything else under /admin/ collapses (trace IDs to a {id}
// placeholder, unknown paths to "other"), so the per-route counters stay
// bounded no matter what IDs or junk a client requests.
var adminRoutes = map[string]bool{
	"/admin/rounds": true, "/admin/snapshot": true, "/admin/metrics": true,
	"/admin/start": true, "/admin/stop": true, "/admin/fleet": true,
	"/admin/quotas": true, "/admin/traces": true, "/admin/decisions": true,
}

// fleetRoutes is the closed set of fleet-protocol paths (see
// fleet.Handler); unknown /fleet/ paths collapse to "other" like any
// other 404.
var fleetRoutes = map[string]bool{
	"/fleet/register": true, "/fleet/lease": true, "/fleet/heartbeat": true,
	"/fleet/complete": true, "/fleet/leave": true, "/fleet/job": true,
}

// RouteLabel normalizes a request path to a bounded metric label: job IDs
// and trace IDs collapse to {id}, unknown paths to "other". Used by the
// HTTP middleware so per-route counters cannot explode on hostile paths.
func RouteLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/jobs", p == "/metrics", p == "/healthz", p == "/readyz":
		return p
	case adminRoutes[p], fleetRoutes[p]:
		return p
	case strings.HasPrefix(p, "/admin/traces/"):
		return "/admin/traces/{id}"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	case strings.HasPrefix(p, "/jobs/"):
		rest := strings.TrimPrefix(p, "/jobs/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return "/jobs/{id}/" + rest[i+1:]
		}
		return "/jobs/{id}"
	default:
		return "other"
	}
}

// handlePrometheus serves GET /metrics: the process-global telemetry
// registry (histograms, counters minted at observation sites) followed by
// gauges computed from live scheduler/fleet/admission state at
// scrape time — scrape-time reads rather than registered GaugeFuncs, so
// the exposition always reflects *this* API's scheduler even when tests
// build several.
func (a *API) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w)
	a.writeDynamicMetrics(w)
}

func (a *API) writeDynamicMetrics(w io.Writer) {
	telemetry.WriteMetricHeader(w, "easeml_build_info",
		"Build identity (constant 1; the info rides the labels).", "gauge")
	telemetry.WriteGauge(w, "easeml_build_info",
		`{version="`+telemetry.EscapeLabelValue(buildinfo.Version)+
			`",commit="`+telemetry.EscapeLabelValue(buildinfo.Commit)+
			`",go_version="`+telemetry.EscapeLabelValue(runtime.Version())+`"}`, 1)

	telemetry.WriteMetricHeader(w, "easeml_jobs", "Jobs known to the scheduler.", "gauge")
	telemetry.WriteGauge(w, "easeml_jobs", "", float64(len(a.sched.Jobs())))
	telemetry.WriteMetricHeader(w, "easeml_rounds_total", "Scheduling rounds completed.", "counter")
	telemetry.WriteGauge(w, "easeml_rounds_total", "", float64(a.sched.Rounds()))
	telemetry.WriteMetricHeader(w, "easeml_leases_in_flight", "Outstanding leases.", "gauge")
	telemetry.WriteGauge(w, "easeml_leases_in_flight", "", float64(a.sched.InFlight()))

	sel := a.sched.SelectionStats()
	telemetry.WriteMetricHeader(w, "easeml_selection_events_total",
		"Selection-index traffic by event (picks, re-scores, heap pops, shadow lifecycle).", "counter")
	for _, row := range []struct {
		event string
		v     uint64
	}{
		{"picks", sel.Picks}, {"speculative_grants", sel.SpeculativeGrants},
		{"oracle_picks", sel.OraclePicks}, {"legacy_picks", sel.LegacyPicks},
		{"jobs_rescored", sel.JobsRescored}, {"heap_pops", sel.HeapPops}, {"epoch_bumps", sel.EpochBumps},
		{"shadows_built", sel.ShadowsBuilt}, {"shadows_reused", sel.ShadowsReused}, {"shadow_rollbacks", sel.ShadowRollbacks},
	} {
		telemetry.WriteGauge(w, "easeml_selection_events_total", `{event="`+row.event+`"}`, float64(row.v))
	}
	telemetry.WriteMetricHeader(w, "easeml_bandit_cache_events_total",
		"GP/bandit cache traffic by cache (select, posterior) and event.", "counter")
	for _, row := range []struct {
		cache, event string
		v            uint64
	}{
		{"select", "hits", sel.BanditCache.Select.Hits},
		{"select", "misses", sel.BanditCache.Select.Misses},
		{"select", "invalidations", sel.BanditCache.Select.Invalidations},
		{"posterior", "hits", sel.BanditCache.Posterior.Hits},
		{"posterior", "misses", sel.BanditCache.Posterior.Misses},
		{"posterior", "invalidations", sel.BanditCache.Posterior.Invalidations},
	} {
		telemetry.WriteGauge(w, "easeml_bandit_cache_events_total",
			`{cache="`+row.cache+`",event="`+row.event+`"}`, float64(row.v))
	}

	if a.fleet != nil {
		fs := a.fleet.FleetStatus()
		telemetry.WriteMetricHeader(w, "easeml_fleet_workers", "Fleet workers by registry state.", "gauge")
		telemetry.WriteGauge(w, "easeml_fleet_workers", `{state="alive"}`, float64(fs.Alive))
		telemetry.WriteGauge(w, "easeml_fleet_workers", `{state="dead"}`, float64(fs.Dead))
		telemetry.WriteGauge(w, "easeml_fleet_workers", `{state="left"}`, float64(fs.Left))
		telemetry.WriteMetricHeader(w, "easeml_fleet_remote_leases", "Leases held by fleet workers.", "gauge")
		telemetry.WriteGauge(w, "easeml_fleet_remote_leases", "", float64(fs.RemoteLeases))
	}

	if a.adm != nil {
		costs := a.sched.TenantCosts()
		telemetry.WriteMetricHeader(w, "easeml_tenant_active_jobs", "Unfinished jobs per tenant.", "gauge")
		telemetry.WriteMetricHeader(w, "easeml_tenant_cost_used", "GPU cost paid per tenant (budget currency).", "gauge")
		for _, ts := range a.adm.Snapshot() {
			label := `{tenant="` + telemetry.EscapeLabelValue(ts.Tenant) + `"}`
			telemetry.WriteGauge(w, "easeml_tenant_active_jobs", label, float64(ts.ActiveJobs))
			telemetry.WriteGauge(w, "easeml_tenant_cost_used", label, costs[ts.Tenant])
		}
	}

	if stats, ok := a.sched.WALStats(); ok {
		telemetry.WriteMetricHeader(w, "easeml_wal_seq", "WAL sequence horizon (last assigned event seq).", "gauge")
		telemetry.WriteGauge(w, "easeml_wal_seq", "", float64(stats.Seq))
	}
}

// WALStats reports the attached WAL's operation tallies; ok is false for
// an in-memory scheduler.
func (sc *Scheduler) WALStats() (storage.LogStats, bool) {
	if sc.log == nil {
		return storage.LogStats{}, false
	}
	return sc.log.Stats(), true
}
