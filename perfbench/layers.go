package main

import (
	"strings"

	"crossmatch/internal/metrics"
)

// unitOf is one metric's name and unit, in output order.
type unitOf struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the
// system sees.
var endToEnd = []unitOf{
	{"events_per_s", "ev/s"},
	{"decision_p75_ms", "ms"},
	{"decision_p90_ms", "ms"},
	{"revenue", "value"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerUnits are the metrics of a traced run, grouped by the module
// they describe. Every workload reports every one; a layer the
// workload does not run reads 0.
var perLayerUnits = []unitOf{
	{"workload.gen_s", "s"},
	{"platform.process_busy_s", "s"},
	{"platform.busy_frac", "ratio"},
	{"platform.inner_matches", "count"},
	{"platform.outer_matches", "count"},
	{"platform.rejections", "count"},
	{"index.lookup_s", "s"},
	{"platform.eligibility_s", "s"},
	{"platform.claim_s", "s"},
	{"platform.claim_conflicts", "count"},
	{"pricing.quote_s", "s"},
	{"pricing.quotes", "count"},
	{"pricing.probe_s", "s"},
	{"online.coop_attempts", "count"},
	{"online.acceptance_probes", "count"},
	{"online.probe_yield", "ratio"},
	{"shard.boundary_frac", "ratio"},
	{"shard.cross_borrows", "count"},
	{"shard.claim_conflicts", "count"},
	{"shard.degraded", "count"},
	{"shard.skew", "ratio"},
	{"serve.call_busy_s", "s"},
	{"serve.lines_per_call", "lines/call"},
	{"serve.shed", "count"},
	{"serve.deadline_miss", "count"},
	{"serve.queue_len_max", "count"},
	{"wal.appends", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_s", "s"},
	{"wal.bytes", "B"},
	{"route.lines", "count"},
	{"route.retries", "count"},
	{"route.refused", "count"},
	{"route.shard_skew", "ratio"},
	{"runtime.allocs_per_event", "allocs/ev"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"share.index", "ratio"},
	{"share.eligibility", "ratio"},
	{"share.pricing", "ratio"},
	{"share.probes", "ratio"},
	{"share.claim", "ratio"},
}

// stageMetric maps the decision tracer's stage names to the per-layer
// time metric and the share metric each feeds.
var stageMetric = map[string][2]string{
	"inner-lookup": {"index.lookup_s", "share.index"},
	"eligibility":  {"platform.eligibility_s", "share.eligibility"},
	"pricing":      {"pricing.quote_s", "share.pricing"},
	"probes":       {"pricing.probe_s", "share.probes"},
	"claim":        {"platform.claim_s", "share.claim"},
}

// perLayer derives the per-layer metrics. untraced is the run's timed
// phase, traced its one instrumented pass with inst attached. The
// sharded runtime rejects tracing, so there the stage times and shares
// read 0 and the shard counters describe the layer.
func perLayer(fx *fixture, untraced, traced *phase, inst *instruments, genS float64) map[string]metric {
	m := make(map[string]float64, len(perLayerUnits))
	m["workload.gen_s"] = genS

	var c metrics.Counters
	var quotes int64
	collectorBusyMs := 0.0
	for _, col := range inst.collectors {
		r := col.Snapshot()
		c.InnerMatches += r.Counters.InnerMatches
		c.OuterMatches += r.Counters.OuterMatches
		c.Rejections += r.Counters.Rejections
		c.ClaimConflicts += r.Counters.ClaimConflicts
		c.CoopAttempts += r.Counters.CoopAttempts
		c.AcceptanceProbes += r.Counters.AcceptanceProbes
		c.WALAppends += r.Counters.WALAppends
		c.WALFsyncs += r.Counters.WALFsyncs
		c.WALFsyncNs += r.Counters.WALFsyncNs
		quotes += r.Pricing.RevenueQuotes + r.Pricing.ThresholdQuotes + r.Pricing.MonteCarloQuotes
		for _, l := range r.Latencies {
			if !strings.HasPrefix(l.Label, "hub/") {
				collectorBusyMs += l.TotalMs
			}
		}
	}
	// In-process engines are timed around Process; a server's engine
	// time is its collector's decision-latency total.
	busy := inst.busy.Seconds()
	if fx.http {
		busy = collectorBusyMs / 1000
	}
	m["platform.process_busy_s"] = busy
	m["platform.busy_frac"] = ratio(busy, traced.wall.Seconds())
	m["platform.inner_matches"] = float64(c.InnerMatches)
	m["platform.outer_matches"] = float64(c.OuterMatches)
	m["platform.rejections"] = float64(c.Rejections)
	m["platform.claim_conflicts"] = float64(c.ClaimConflicts)
	m["pricing.quotes"] = float64(quotes)
	m["online.coop_attempts"] = float64(c.CoopAttempts)
	m["online.acceptance_probes"] = float64(c.AcceptanceProbes)
	m["online.probe_yield"] = ratio(float64(c.OuterMatches), float64(c.AcceptanceProbes))

	for _, t := range inst.tracers {
		for _, sp := range t.Spans() {
			for _, lap := range sp.Stages {
				if names, ok := stageMetric[lap.Stage]; ok {
					m[names[0]] += float64(lap.Dur) / 1e9
				}
			}
		}
	}
	for _, names := range stageMetric {
		m[names[1]] = ratio(m[names[0]], busy)
	}

	var applied []float64
	var boundary int64
	for _, st := range inst.shardStats {
		applied = append(applied, float64(st.Applied))
		boundary += st.BoundaryEvents
		m["shard.cross_borrows"] += float64(st.Borrows)
		m["shard.claim_conflicts"] += float64(st.ClaimConflicts)
		m["shard.degraded"] += float64(st.Degraded)
	}
	m["shard.boundary_frac"] = ratio(float64(boundary), float64(len(fx.stream.Requests())))
	m["shard.skew"] = skew(applied)

	if fx.http {
		m["serve.call_busy_s"] = traced.rec.callBusy.Seconds()
		m["serve.lines_per_call"] = ratio(float64(traced.rec.attempted+traced.rec.retries), float64(traced.rec.calls))
	}
	for _, s := range inst.servers {
		m["serve.shed"] += float64(s.Server.ShedRateLimit + s.Server.ShedQueueFull)
		m["serve.deadline_miss"] += float64(s.Server.DeadlineMiss)
	}
	m["serve.queue_len_max"] = float64(inst.queueMax)

	m["wal.appends"] = float64(c.WALAppends)
	m["wal.fsyncs"] = float64(c.WALFsyncs)
	m["wal.fsync_s"] = float64(c.WALFsyncNs) / 1e9
	m["wal.bytes"] = float64(inst.walBytes)

	if r := inst.router; r != nil {
		m["route.lines"] = float64(r.Lines)
		m["route.refused"] = float64(r.Refused + r.Busy)
		var lines []float64
		for _, sh := range r.Shards {
			m["route.retries"] += float64(sh.Retries)
			lines = append(lines, float64(sh.Lines))
		}
		m["route.shard_skew"] = skew(lines)
	}

	// Runtime and load-generator figures describe the untraced phase, so the
	// tracer's own allocations do not count.
	m["runtime.allocs_per_event"] = ratio(float64(untraced.rt1.allocs-untraced.rt0.allocs), float64(untraced.rec.attempted))
	m["runtime.gc_cpu_frac"] = ratio(untraced.rt1.gcCPU-untraced.rt0.gcCPU, untraced.rt1.totalCPU-untraced.rt0.totalCPU)
	m["loadgen.late_p99_ms"] = quantile(untraced.rec.late, 0.99)
	m["trace.overhead"] = ratio(traced.eventsPerS(), untraced.eventsPerS())

	out := make(map[string]metric, len(perLayerUnits))
	for _, u := range perLayerUnits {
		out[u.name] = metric{m[u.name], u.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// skew is max ÷ min of xs; 0 with fewer than two values or a zero min.
func skew(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(hi, lo)
}
