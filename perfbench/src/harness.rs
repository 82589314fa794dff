//! One benchmark run: set-up, the timed loop, the traced pass and the
//! overhead comparison.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cynthia::obs::{set_enabled, tracer};

use crate::inputs::{setup, Env, Kind, Size};
use crate::layers::{metric, per_layer, span, Counters, Elastic, Metric, Overhead, SpanTotals};
use crate::ops::{check, execute, Outcome};
use crate::stats::{fnv1a, median, quantile, ratio, FNV_OFFSET};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    /// Minimum measuring time; the loop always ends on a whole pass.
    pub seconds: f64,
    /// Per-layer metrics from a traced pass instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// `setup_s` is the median of at least this many set-ups, repeated
    /// for at least `setup_seconds` (the last one is used).
    pub setups: usize,
    pub setup_seconds: f64,
}

/// Latency summary of one op class.
#[derive(Debug, Clone)]
pub struct ClassLatency {
    pub class: &'static str,
    pub ops: usize,
    pub median_ms: f64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this mode, in its order.
    pub metrics: Vec<Metric>,
    /// Workload outcomes of an untraced run (recorded, not printed; a
    /// traced run prints them among its metrics).
    pub outcomes: Vec<Metric>,
    /// FNV-1a over the serialized reports of the first pass, in op order.
    pub digest: u64,
    pub pool: usize,
    pub passes: usize,
    pub setup_samples_s: Vec<f64>,
    pub classes: Vec<ClassLatency>,
    pub errors: Vec<String>,
    /// Whether the program's obs hooks are compiled in (its registry
    /// holds any series after a run).
    pub obs_hooks: bool,
}

/// Per-op results of the timed loop. Memory stays bounded by the pool
/// size however many passes run, so the harness does not move
/// `peak_rss_mb`.
struct Tally {
    /// Latencies of the pass in progress, seconds.
    pass: Vec<f64>,
    /// `[ops/s, p50, p90, p99]` of each finished pass (quantiles in s).
    finished: Vec<[f64; 4]>,
    busy_s: f64,
    /// Latency of each op's first run, by class.
    by_class: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// Report digest of each op's first run; later runs must match it.
    digests: Vec<Option<u64>>,
    /// First-run outcomes, in op order.
    outcomes: Vec<Outcome>,
    errors: Vec<String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

impl Tally {
    fn new(pool: usize) -> Self {
        Tally {
            pass: Vec::with_capacity(pool),
            finished: Vec::new(),
            busy_s: 0.0,
            by_class: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            digests: vec![None; pool],
            outcomes: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Runs and checks op `index`. Only `execute` is timed; a panic in
    /// either step is caught and counted as a failed op.
    fn run(&mut self, env: &Env, index: usize) -> Outcome {
        let op = &env.ops[index];
        self.attempted += 1;
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| execute(env, op)));
        let dt = t.elapsed().as_secs_f64();
        self.pass.push(dt);
        self.busy_s += dt;
        let checked = report.map_err(panic_message).and_then(|r| {
            catch_unwind(AssertUnwindSafe(|| check(env, op, &r)))
                .map_err(panic_message)
                .and_then(|c| c)
        });
        let checked = checked.and_then(|o| match self.digests[index] {
            None => {
                self.digests[index] = Some(o.digest);
                self.outcomes.push(o.clone());
                self.by_class.entry(op.class()).or_default().push(dt);
                Ok(o)
            }
            Some(d) if d == o.digest => Ok(o),
            Some(_) => Err("report differs from the same op's first run".to_string()),
        });
        checked.unwrap_or_else(|e| {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{} op {index}: {e}", op.class()));
            }
            Outcome::default()
        })
    }

    fn end_pass(&mut self) {
        self.pass.sort_by(f64::total_cmp);
        let busy: f64 = self.pass.iter().sum();
        let q = |q: f64| quantile(&self.pass, q);
        self.finished.push([
            ratio(self.pass.len() as f64, busy),
            q(0.50),
            q(0.90),
            q(0.99),
        ]);
        self.pass.clear();
    }

    /// Median over passes of per-pass statistic `i`. Every pass runs the
    /// same ops, so the median discards passes a burst of host contention
    /// slowed.
    fn per_pass(&self, i: usize) -> f64 {
        median(&mut self.finished.iter().map(|p| p[i]).collect::<Vec<_>>())
    }

    fn digest(&self) -> u64 {
        self.digests
            .iter()
            .flatten()
            .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
    }

    fn classes(&self) -> Vec<ClassLatency> {
        self.by_class
            .iter()
            .map(|(class, v)| ClassLatency {
                class,
                ops: v.len(),
                median_ms: median(&mut v.clone()) * 1e3,
            })
            .collect()
    }
}

/// Runs the first op of every class once, so lazy statics, caches and the
/// allocator are warm before anything is timed.
fn warm_up(env: &Env) {
    let mut seen = Vec::new();
    for op in &env.ops {
        if !seen.contains(&op.class()) {
            seen.push(op.class());
            let _ = catch_unwind(AssertUnwindSafe(|| execute(env, op)));
        }
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// Workload outcomes of a pass: the program's results, not its speed.
fn outcomes(t: &Tally, updates: f64) -> Vec<Metric> {
    let o = &t.outcomes;
    let frac = |f: fn(&Outcome) -> Option<bool>| mean(o.iter().filter_map(f).map(f64::from));
    vec![
        metric(
            "error_frac",
            "ratio",
            ratio(t.failed as f64, t.attempted as f64),
        ),
        metric("sim_updates_per_s", "1/s", ratio(updates, t.busy_s)),
        metric(
            "pred_err_pct",
            "%",
            100.0 * mean(o.iter().filter_map(|x| x.pred_err)),
        ),
        metric("feasible_frac", "ratio", frac(|x| x.feasible)),
        metric(
            "plan_cost_usd",
            "USD",
            mean(o.iter().filter_map(|x| x.plan_cost)),
        ),
        metric("deadline_met_frac", "ratio", frac(|x| x.deadline_met)),
        metric(
            "realized_cost_usd",
            "USD",
            mean(o.iter().filter_map(|x| x.realized_cost)),
        ),
    ]
}

/// Runs one benchmark configuration.
pub fn run(cfg: &Config) -> RunResult {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &Config) -> RunResult {
    let mut setup_samples_s = Vec::new();
    let first = Instant::now();
    let env = loop {
        let t = Instant::now();
        let env = setup(cfg.kind, cfg.seed, cfg.size);
        warm_up(&env);
        setup_samples_s.push(t.elapsed().as_secs_f64());
        if setup_samples_s.len() >= cfg.setups && first.elapsed().as_secs_f64() >= cfg.setup_seconds
        {
            break env;
        }
    };

    let before = Counters::read();
    let mut tally = Tally::new(env.ops.len());
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        for index in 0..env.ops.len() {
            tally.run(&env, index);
        }
        tally.end_pass();
        passes += 1;
    }
    let counters = Counters::read().since(&before);

    let metrics = vec![
        metric("setup_s", "s", median(&mut setup_samples_s.clone())),
        metric("ops_per_s", "1/s", tally.per_pass(0)),
        metric("op_p50_ms", "ms", tally.per_pass(1) * 1e3),
        metric("op_p90_ms", "ms", tally.per_pass(2) * 1e3),
        metric("op_p99_ms", "ms", tally.per_pass(3) * 1e3),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        outcomes: outcomes(&tally, counters.get("cynthia_train_updates_total")),
        digest: tally.digest(),
        pool: env.ops.len(),
        passes,
        setup_samples_s,
        classes: tally.classes(),
        errors: tally.errors.clone(),
        obs_hooks: !Counters::read().is_empty(),
    }
}

/// Wall time of `op` with the observability layer in `mode`: 0 default
/// (counters on, tracer off), 1 traced, 2 hooks off.
fn timed_in_mode(env: &Env, index: usize, mode: usize) -> f64 {
    match mode {
        1 => tracer().set_enabled(true),
        2 => set_enabled(false),
        _ => {}
    }
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| execute(env, &env.ops[index])));
    let dt = t.elapsed().as_secs_f64();
    tracer().set_enabled(false);
    set_enabled(true);
    drop(tracer().drain());
    drop(report);
    dt
}

/// Times every op in all three modes, rotating which goes first, in whole
/// passes until `seconds` have gone by.
fn overhead(env: &Env, seconds: f64) -> Overhead {
    let mut sums = [0.0; 3];
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        for index in 0..env.ops.len() {
            for j in 0..3 {
                let mode = (index + round + j) % 3;
                sums[mode] += timed_in_mode(env, index, mode);
            }
        }
        round += 1;
    }
    Overhead {
        trace_pct: 100.0 * (ratio(sums[1], sums[0]) - 1.0),
        hooks_pct: 100.0 * (ratio(sums[0], sums[2]) - 1.0),
    }
}

fn run_traced(cfg: &Config) -> RunResult {
    drop(tracer().drain());
    tracer().set_enabled(true);
    let t = Instant::now();
    let env = setup(cfg.kind, cfg.seed, cfg.size);
    let setup_s = t.elapsed().as_secs_f64();
    tracer().set_enabled(false);
    let mut setup_spans = SpanTotals::default();
    setup_spans.add(&tracer().drain());
    warm_up(&env);
    drop(tracer().drain());

    let before = Counters::read();
    let mut tally = Tally::new(env.ops.len());
    let mut pass = SpanTotals::default();
    let mut elastic = Elastic::default();
    let start = Instant::now();
    tracer().set_enabled(true);
    for index in 0..env.ops.len() {
        let outcome = {
            let _op = span("op");
            tally.run(&env, index)
        };
        elastic.revocations += f64::from(outcome.revocations);
        elastic.repairs += f64::from(outcome.repairs);
        if tracer().dropped() > 0 {
            tally.failed += 1;
            tally
                .errors
                .push(format!("op {index} overflowed the span buffer"));
        }
        pass.add(&tracer().drain());
    }
    tracer().set_enabled(false);
    let counters = Counters::read().since(&before);
    let remaining = cfg.seconds - start.elapsed().as_secs_f64();
    let o = overhead(&env, remaining);

    let mut metrics = per_layer(&setup_spans, &pass, &counters, elastic, o);
    metrics.extend(outcomes(
        &tally,
        counters.get("cynthia_train_updates_total"),
    ));
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        outcomes: Vec::new(),
        digest: tally.digest(),
        pool: env.ops.len(),
        passes: 1,
        setup_samples_s: vec![setup_s],
        classes: tally.classes(),
        errors: tally.errors.clone(),
        obs_hooks: !Counters::read().is_empty(),
    }
}
