//! Per-layer accounting for the traced run.
//!
//! Time comes from wall spans the benchmark opens around each op and each
//! call it makes into a layer (track [`TRACK`]), plus the Alg. 1 wall
//! spans the program records itself (track `provision`). A span's self
//! time is its duration minus the time its child spans cover. Work counts
//! are before/after deltas of the program's `cynthia::obs::metrics()`
//! counters.

use std::collections::BTreeMap;

use cynthia::obs::span::SpanRecord;
use cynthia::obs::{metrics, tracer, WallSpan};

use crate::stats::ratio;

/// Track of the benchmark's own spans.
const TRACK: &str = "bench";
/// The program's only wall-clock track; its other tracks run on the
/// simulation's virtual clock and cannot be compared with wall time.
const PROGRAM_WALL_TRACK: &str = "provision";

/// Opens a wall span on the benchmark's track. Inert (one atomic load)
/// while the tracer is off, which is how every untraced op runs.
pub fn span(name: &str) -> WallSpan<'static> {
    tracer().wall_span(TRACK, name)
}

/// One metric as printed: name, unit, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Registry totals by metric name: counters summed over their labels,
/// histograms by observation count.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn read() -> Self {
        let mut totals = BTreeMap::new();
        let exported = metrics().to_json();
        for series in exported["metrics"].as_array().into_iter().flatten() {
            let (Some(name), Some(value)) = (
                series["name"].as_str(),
                series
                    .get("value")
                    .or_else(|| series.get("count"))
                    .and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            *totals.entry(name.to_string()).or_insert(0.0) += value;
        }
        Counters(totals)
    }

    /// `self − earlier`, name by name.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    count: u64,
    total_s: f64,
    self_s: f64,
}

/// Count, total and self time of wall spans, by span name
/// (`provision.band.<type>` spans are pooled as `provision.band`).
#[derive(Debug, Default)]
pub struct SpanTotals(BTreeMap<String, Totals>);

impl SpanTotals {
    /// Adds drained spans. Spans on different tracks nest by time alone:
    /// the program's plan spans sit inside the benchmark's layer spans.
    pub fn add(&mut self, spans: &[SpanRecord]) {
        let mut wall: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.track == TRACK || s.track == PROGRAM_WALL_TRACK)
            .collect();
        wall.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
        let mut covered = vec![0.0; wall.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in wall.iter().enumerate() {
            while open.last().is_some_and(|&p| s.end > wall[p].end) {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                covered[parent] += s.duration();
            }
            open.push(i);
        }
        for (s, covered) in wall.iter().zip(covered) {
            let name = if s.name.starts_with("provision.band.") {
                "provision.band"
            } else {
                s.name.as_str()
            };
            let t = self.0.entry(name.to_string()).or_default();
            t.count += 1;
            t.total_s += s.duration();
            t.self_s += (s.duration() - covered).max(0.0);
        }
    }

    fn get(&self, name: &str) -> Totals {
        self.0.get(name).copied().unwrap_or_default()
    }

    fn count(&self, name: &str) -> f64 {
        self.get(name).count as f64
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.get(name).total_s * 1e3
    }

    fn self_ms(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n).self_s).sum::<f64>() * 1e3
    }
}

/// Measured overheads of the observability layer, percent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    /// Span tracer on versus off (counters on in both).
    pub trace_pct: f64,
    /// Counters on versus `cynthia::obs::set_enabled(false)`.
    pub hooks_pct: f64,
}

/// Revocations and repairs the elastic scenarios of a pass reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elastic {
    pub revocations: f64,
    pub repairs: f64,
}

/// The per-layer metrics of one traced pass. `setup` holds the set-up's
/// spans, `pass` the timed pass's, `c` the pass's counter deltas.
pub fn per_layer(
    setup: &SpanTotals,
    pass: &SpanTotals,
    c: &Counters,
    elastic: Elastic,
    o: Overhead,
) -> Vec<Metric> {
    let plans = c.get("cynthia_provision_plans_total");
    let candidates = c.get("cynthia_provision_candidates_total");
    let infeasible = c.get("cynthia_provision_infeasible_total");
    let provisioner_ms = pass.self_ms(&["provisioner.plan", "provision.plan", "provision.band"]);
    let hits = c.get("cynthia_provision_cache_hits_total");
    let misses = c.get("cynthia_provision_cache_misses_total");
    // The guarded and elastic scenarios' own time, less the Alg. 1 spans
    // inside them, is engine work (profiling, faulted and disrupted runs)
    // plus the replanner's and billing's, which only spans inside the
    // program could separate.
    let engine_ms = pass.self_ms(&[
        "engine.simulate_faulted",
        "slo.run_guarded",
        "elastic.run_elastic",
    ]);
    let updates = c.get("cynthia_train_updates_total");
    let events = c.get("cynthia_sim_events_total");
    let started = c.get("cynthia_sim_flows_started_total");
    let cancelled = c.get("cynthia_sim_flows_cancelled_total");
    vec![
        metric("provisioner.plans", "count", plans),
        metric("provisioner.busy_ms", "ms", provisioner_ms),
        metric("provisioner.candidates", "count", candidates),
        metric(
            "provisioner.candidates_per_plan",
            "count",
            ratio(candidates, plans),
        ),
        metric(
            "provisioner.us_per_candidate",
            "us",
            ratio(provisioner_ms * 1e3, candidates),
        ),
        metric("provisioner.infeasible", "count", infeasible),
        metric(
            "provisioner.feasible_ratio",
            "ratio",
            ratio(plans - infeasible, plans),
        ),
        metric("eval_cache.hits", "count", hits),
        metric("eval_cache.misses", "count", misses),
        metric("eval_cache.hit_ratio", "ratio", ratio(hits, hits + misses)),
        metric(
            "profiler.calls",
            "count",
            setup.count("profiler.profile_workload"),
        ),
        metric(
            "profiler.busy_ms",
            "ms",
            setup.total_ms("profiler.profile_workload"),
        ),
        metric(
            "perf_model.calls",
            "count",
            pass.count("perf_model.predict_time"),
        ),
        metric(
            "perf_model.busy_us",
            "us",
            pass.total_ms("perf_model.predict_time") * 1e3,
        ),
        metric("engine.runs", "count", c.get("cynthia_train_runs_total")),
        metric("engine.busy_ms", "ms", engine_ms),
        metric("engine.updates", "count", updates),
        metric("engine.events", "count", events),
        metric("engine.us_per_event", "us", ratio(engine_ms * 1e3, events)),
        metric(
            "engine.us_per_update",
            "us",
            ratio(engine_ms * 1e3, updates),
        ),
        metric(
            "engine.rollbacks",
            "count",
            c.get("cynthia_train_rollbacks_total"),
        ),
        metric(
            "engine.lost_updates",
            "count",
            c.get("cynthia_train_lost_updates_total"),
        ),
        metric(
            "engine.replayed_updates",
            "count",
            c.get("cynthia_train_replayed_updates_total"),
        ),
        metric(
            "engine.restores",
            "count",
            c.get("cynthia_train_restores_total"),
        ),
        metric(
            "engine.retries",
            "count",
            c.get("cynthia_train_retries_total"),
        ),
        metric(
            "engine.failovers",
            "count",
            c.get("cynthia_train_failovers_total"),
        ),
        metric(
            "engine.downtime_s",
            "s",
            c.get("cynthia_train_downtime_seconds_total"),
        ),
        metric("fluid.flows_started", "count", started),
        metric(
            "fluid.flows_completed",
            "count",
            c.get("cynthia_sim_flows_completed_total"),
        ),
        metric("fluid.flows_cancelled", "count", cancelled),
        metric("fluid.cancel_ratio", "ratio", ratio(cancelled, started)),
        metric("fluid.us_per_flow", "us", ratio(engine_ms * 1e3, started)),
        metric(
            "faults.plans_drawn",
            "count",
            pass.count("faults.draw_plan"),
        ),
        metric(
            "faults.draw_busy_ms",
            "ms",
            pass.self_ms(&["faults.draw_plan"]),
        ),
        metric(
            "faults.injected",
            "count",
            c.get("cynthia_faults_injected_total"),
        ),
        metric("slo.runs", "count", c.get("cynthia_slo_guarded_runs_total")),
        metric("slo.busy_ms", "ms", pass.total_ms("slo.run_guarded")),
        metric("slo.replans", "count", c.get("cynthia_slo_replans_total")),
        metric(
            "slo.rescue_searches",
            "count",
            c.get("cynthia_elastic_rescue_searches_total"),
        ),
        metric(
            "slo.deadline_misses",
            "count",
            c.get("cynthia_slo_deadline_misses_total"),
        ),
        metric("elastic.runs", "count", pass.count("elastic.run_elastic")),
        metric(
            "elastic.busy_ms",
            "ms",
            pass.total_ms("elastic.run_elastic"),
        ),
        metric("elastic.revocations", "count", elastic.revocations),
        metric("elastic.repairs", "count", elastic.repairs),
        metric(
            "billing.leases",
            "count",
            c.get("cynthia_billing_leases_total"),
        ),
        metric(
            "billing.settled_usd",
            "USD",
            c.get("cynthia_billing_settled_dollars_total"),
        ),
        metric("obs.trace_overhead_pct", "%", o.trace_pct),
        metric("obs.hooks_overhead_pct", "%", o.hooks_pct),
        metric("bench.self_ms", "ms", pass.self_ms(&["op"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(track: &str, name: &str, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            track: track.to_string(),
            name: name.to_string(),
            start,
            end,
            depth: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_across_wall_tracks() {
        let mut t = SpanTotals::default();
        t.add(&[
            rec(TRACK, "provisioner.plan", 1.0, 4.0),
            rec(PROGRAM_WALL_TRACK, "provision.plan", 1.5, 3.5),
            rec(PROGRAM_WALL_TRACK, "provision.band.c4.xlarge", 2.0, 3.0),
            rec("train#1", "train.run", 0.0, 100.0),
            rec(TRACK, "op", 0.0, 5.0),
        ]);
        assert_eq!(t.self_ms(&["op"]), 2000.0);
        assert_eq!(t.self_ms(&["provisioner.plan"]), 1000.0);
        assert_eq!(t.self_ms(&["provision.plan"]), 1000.0);
        assert_eq!(t.self_ms(&["provision.band"]), 1000.0);
        assert_eq!(t.count("train.run"), 0.0, "virtual-clock spans are ignored");
    }
}
