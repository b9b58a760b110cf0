package main

import "strings"

// Per-layer metric sources. Every traced run emits the whole table on
// every workload; a layer a workload leaves idle reads 0.
var (
	clientOps  = []string{"submit", "feed", "refine", "infer", "infer_batch", "status"}
	httpRoutes = []string{"submit", "feed", "refine", "infer", "infer_batch", "status", "lease", "complete"}
	walTypes   = []string{"job_submitted", "example_fed", "example_refined", "model_recorded"}
	pickStages = []string{"select", "lock_wait", "hallucinate", "index_repair", "wal_append"}
	fleetRPCs  = []string{"lease", "complete", "heartbeat"}
	specReject = []string{"stale", "capacity", "invalid", "disabled"}
)

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.Contains(name, "_ms"), strings.Contains(name, ".ms_"):
		return "ms"
	case strings.HasSuffix(name, "_bytes_mean"), strings.HasSuffix(name, "bytes_per_append"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "regret"):
		return "ratio"
	case strings.Contains(name, "_per_"):
		return "count/op"
	}
	return "count"
}

// layerMetrics fills the per-layer table from the phase's transport
// aggregates and /metrics deltas.
func (r *runner) layerMetrics(ph *phase) {
	L, d := r.out.layer, ph.d
	for _, op := range clientOps {
		L["client."+op+".rtt_ms_mean"] = r.clientRTT[op].mean()
	}
	for _, rt := range httpRoutes {
		lbl := `route="` + serverRoute[rt] + `"`
		srv := 1000 * ratio(d.sum("easeml_http_request_seconds_sum", lbl), d.sum("easeml_http_request_seconds_count", lbl))
		rs := ph.routes[rt]
		L["http."+rt+".server_ms_mean"] = srv
		// The fleet listener serves /fleet/* without the HTTP middleware, so
		// those routes have no server-side time and no transport split.
		L["http."+rt+".transport_ms_mean"] = 0
		if rs.n > 0 && srv > 0 {
			L["http."+rt+".transport_ms_mean"] = mean(rs.rttSum, rs.n) - srv
		}
	}
	L["admission.admitted"] = d.sum("easeml_admission_verdicts_total", `verdict="admitted"`)
	L["admission.rejected"] = d.sum("easeml_admission_verdicts_total", `verdict="rejected"`)

	appends := d.sum("easeml_wal_appends_total")
	for _, t := range walTypes {
		L["wal.appends."+t] = d.sum("easeml_wal_appends_total", `type="`+t+`"`)
	}
	fsyncs := d.sum("easeml_wal_fsyncs_total")
	L["wal.append_wait_ms_mean"] = 1000 * ratio(d.sum("easeml_wal_append_seconds_sum"), d.sum("easeml_wal_append_seconds_count"))
	L["wal.fsyncs"] = fsyncs
	L["wal.fsync_ms_mean"] = 1000 * ratio(d.sum("easeml_wal_fsync_seconds_sum"), d.sum("easeml_wal_fsync_seconds_count"))
	L["wal.appends_per_fsync"] = ratio(appends, fsyncs)
	L["wal.bytes_per_append"] = ratio(d.sum("easeml_wal_bytes_written_total"), appends)

	for _, s := range pickStages {
		fam := "easeml_pick_stage_" + s + "_seconds"
		n := d.sum(fam + "_count")
		L["pick."+s+".ms_mean"] = 1000 * ratio(d.sum(fam+"_sum"), n)
		L["pick."+s+".count"] = n
	}
	sel := func(ev string) float64 { return d.sum("easeml_selection_events_total", `event="`+ev+`"`) }
	picks := sel("picks")
	L["selindex.heap_pops_per_pick"] = ratio(sel("heap_pops"), picks)
	L["selindex.jobs_rescored_per_pick"] = ratio(sel("jobs_rescored"), picks)
	L["selindex.shadow_reuse_ratio"] = ratio(sel("shadows_reused"), sel("shadows_reused")+sel("shadows_built"))
	hit := func(cache string) float64 {
		h := d.sum("easeml_bandit_cache_events_total", `cache="`+cache+`"`, `event="hits"`)
		m := d.sum("easeml_bandit_cache_events_total", `cache="`+cache+`"`, `event="misses"`)
		return ratio(h, h+m)
	}
	L["bandit.select_cache_hit_ratio"] = hit("select")
	L["bandit.posterior_cache_hit_ratio"] = hit("posterior")

	for _, rpc := range fleetRPCs {
		rs := ph.routes[rpc]
		L["fleet."+rpc+".rtt_ms_p50"] = percentile(rs.rtts, 0.50)
		L["fleet."+rpc+".rtt_ms_p99"] = percentile(rs.rtts, 0.99)
	}
	lease := ph.routes["lease"]
	L["fleet.lease.resp_bytes_mean"] = ratio(float64(lease.respBytes), float64(lease.n))
	grants := d.sum("easeml_fleet_leases_granted_total")
	proposals := d.sum("easeml_speculative_proposals_total")
	L["fleet.polls_per_grant"] = ratio(d.sum("easeml_fleet_lease_polls_total"), grants)
	L["fleet.spec_hit_ratio"] = ratio(d.sum("easeml_speculative_grants_total"), proposals)
	for _, why := range specReject {
		L["fleet.spec_rejections."+why] = d.sum("easeml_speculative_rejections_total", `reason="`+why+`"`)
	}
	L["fleet.posteriors_per_lease"] = ratio(d.sum("easeml_speculative_posteriors_total"), grants)

	L["worker.execute_ms_mean"] = r.exec.mean()
	wall := ph.end.Sub(ph.start).Seconds() * 1000
	L["worker.gap_ms_per_lease"] = ratio(float64(r.devices)*wall-r.exec.total(), float64(r.exec.count()))

	pc := func(cache string) float64 {
		h := d.sum("easeml_plan_cache_events_total", `cache="`+cache+`"`, `event="hit"`)
		m := d.sum("easeml_plan_cache_events_total", `cache="`+cache+`"`, `event="miss"`)
		return ratio(h, h+m)
	}
	L["plancache.program_hit_ratio"] = pc("program")
	L["plancache.candidates_hit_ratio"] = pc("candidates")
	L["serving.outputs"] = d.sum("easeml_infer_outputs_total")
	L["serving.batch_size_mean"] = ratio(d.sum("easeml_infer_batch_size_sum"), d.sum("easeml_infer_batch_size_count"))

	ops := float64(ph.ops)
	L["telemetry.spans_per_op"] = ratio(d.sum("easeml_trace_spans_total"), ops)
	L["telemetry.decisions_per_pick"] = ratio(d.sum("easeml_decisions_total"), picks)
	L["selection.regret"] = 0 // the training workload fills it in from its final statuses
	L["wal.recover_ms"] = 0   // ingest and training fill it in when they restart the server
}
