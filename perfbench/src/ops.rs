//! Running one op through the program's serial public entry points, and
//! checking what it returned.

use cynthia::cloud::billing::static_cluster_cost;
use cynthia::cloud::RevocationModel;
use cynthia::core::provisioner::plan;
use cynthia::prelude::*;

use crate::inputs::{Disturbance, Env, Op, CHAOS_KINDS, GOAL_CLASSES, TRAIN_SHAPES};
use crate::layers::span;
use crate::stats::{fnv1a, FNV_OFFSET};

/// What an op returned.
pub enum Report {
    Plan(Option<Plan>),
    Train(TrainingReport),
    Guarded(Option<GuardedReport>),
    Elastic(Option<ElasticReport>),
}

/// A checked op: its report digest and the outputs the metrics average.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// FNV-1a of the serialized report.
    pub digest: u64,
    /// Whether Alg. 1 found a plan (`submit`, `chaos`).
    pub feasible: Option<bool>,
    /// Eq. (8) cost of the chosen plan, $.
    pub plan_cost: Option<f64>,
    /// Realised cost of the run, $.
    pub realized_cost: Option<f64>,
    /// |predicted − realised| / realised training time.
    pub pred_err: Option<f64>,
    pub deadline_met: Option<bool>,
    /// Spot revocations and repairs of an elastic run.
    pub revocations: u32,
    pub repairs: u32,
}

/// Runs `op`. Only this call is inside an op's timed latency.
pub fn execute(env: &Env, op: &Op) -> Report {
    match *op {
        Op::Submit { class, goal } => {
            let job = GOAL_CLASSES[class].job.index();
            let _span = span("provisioner.plan");
            Report::Plan(plan(
                &env.profiles[job],
                &env.losses[job],
                &env.catalog,
                &goal,
                &PlannerOptions::default(),
            ))
        }
        Op::Train { shape, seed } => {
            let s = &TRAIN_SHAPES[shape];
            let job = TrainJob {
                workload: &env.train_workloads[shape],
                cluster: ClusterSpec::homogeneous(
                    env.catalog.expect(s.type_name),
                    s.n_workers,
                    s.n_ps,
                ),
                config: SimConfig::exact(seed),
            };
            let _span = span("engine.simulate_faulted");
            Report::Train(simulate_faulted(
                &job,
                &FaultPlan::empty(),
                &RecoveryPolicy::none(),
            ))
        }
        Op::Chaos { kind, seed, fleet } => {
            let k = &CHAOS_KINDS[kind];
            let workload = &env.workloads[k.job.index()];
            match k.disturbance {
                Disturbance::Faults { per_hour } => {
                    let faults = {
                        let _span = span("faults.draw_plan");
                        FaultInjector::new(InjectorConfig::chaos(per_hour, k.deadline_secs))
                            .draw_plan(seed, fleet.0 as usize, fleet.1 as usize)
                    };
                    let _span = span("slo.run_guarded");
                    Report::Guarded(run_guarded(
                        workload,
                        &env.catalog,
                        &faults,
                        &RecoveryPolicy::default(),
                        &SloGuardConfig::new(k.goal(), seed),
                    ))
                }
                Disturbance::Revocations { per_hour } => {
                    let mut cfg =
                        ElasticConfig::new(k.goal(), RepairPolicy::spot_with_fallback(), seed);
                    cfg.market.revocations = RevocationModel::Exponential {
                        rate_per_hour: per_hour,
                    };
                    let _span = span("elastic.run_elastic");
                    Report::Elastic(run_elastic(workload, &env.catalog, &cfg))
                }
            }
        }
    }
}

fn digest<T: serde::Serialize>(value: &T) -> Result<u64, String> {
    let text = serde_json::to_string(value).map_err(|e| format!("report serializes: {e}"))?;
    Ok(fnv1a(FNV_OFFSET, text.as_bytes()))
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks a completed engine run: every update simulated, every rolled
/// back update replayed, finite time.
fn check_run(r: &TrainingReport) -> Result<(), String> {
    ensure(r.simulated_iterations == r.iterations, || {
        format!(
            "simulated {} of {} updates",
            r.simulated_iterations, r.iterations
        )
    })?;
    ensure(r.lost_updates == r.replayed_updates, || {
        format!(
            "{} updates lost but {} replayed",
            r.lost_updates, r.replayed_updates
        )
    })?;
    ensure(r.total_time.is_finite() && r.total_time > 0.0, || {
        format!("training time {}", r.total_time)
    })
}

/// Checks `fleet` is the plan the fault plan was drawn for.
fn check_fleet(p: &Plan, fleet: (u32, u32)) -> Result<(), String> {
    ensure((p.n_workers, p.n_ps) == fleet, || {
        format!(
            "planned {}+{} but inputs were drawn for {}+{}",
            p.n_workers, p.n_ps, fleet.0, fleet.1
        )
    })
}

fn relative_error(predicted: f64, realised: f64) -> f64 {
    (predicted - realised).abs() / realised
}

/// Checks `report` against `op`'s goal and the program's own models.
pub fn check(env: &Env, op: &Op, report: &Report) -> Result<Outcome, String> {
    match (op, report) {
        (Op::Submit { class, goal }, Report::Plan(p)) => {
            let mut out = Outcome {
                digest: digest(p)?,
                feasible: Some(p.is_some()),
                ..Outcome::default()
            };
            let Some(p) = p else { return Ok(out) };
            let job = GOAL_CLASSES[*class].job.index();
            let headroom = PlannerOptions::default().headroom;
            ensure(p.predicted_time <= goal.deadline_secs * headroom, || {
                format!(
                    "predicted {:.1} s over the {:.1} s deadline",
                    p.predicted_time, goal.deadline_secs
                )
            })?;
            let loss = env.losses[job].predict(p.total_updates, p.n_workers);
            ensure(loss <= goal.target_loss, || {
                format!("predicted loss {loss} over target {}", goal.target_loss)
            })?;
            let ty = env
                .catalog
                .get(&p.type_name)
                .ok_or_else(|| format!("plan names unknown type {}", p.type_name))?;
            let shape = ClusterShape::homogeneous(ty, p.n_workers, p.n_ps);
            let time = {
                let _span = span("perf_model.predict_time");
                env.models[job].predict_time(&shape, p.total_updates)
            };
            ensure(time == p.predicted_time, || {
                format!(
                    "model re-evaluates {time} s, plan says {}",
                    p.predicted_time
                )
            })?;
            let cost = static_cluster_cost(
                ty.price_per_hour,
                p.n_workers,
                ty.price_per_hour,
                p.n_ps,
                time,
            );
            ensure(relative_error(p.predicted_cost, cost) < 1e-9, || {
                format!("plan cost {} but Eq. 8 gives {cost}", p.predicted_cost)
            })?;
            out.plan_cost = Some(p.predicted_cost);
            Ok(out)
        }
        (Op::Train { shape, .. }, Report::Train(r)) => {
            let s = &TRAIN_SHAPES[*shape];
            check_run(r)?;
            let ty = env.catalog.expect(s.type_name);
            let shape = ClusterShape::homogeneous(ty, s.n_workers, s.n_ps);
            let predicted = {
                let _span = span("perf_model.predict_time");
                env.models[s.job.index()].predict_time(&shape, r.simulated_iterations)
            };
            Ok(Outcome {
                digest: digest(r)?,
                pred_err: Some(relative_error(predicted, r.total_time)),
                realized_cost: Some(static_cluster_cost(
                    ty.price_per_hour,
                    s.n_workers,
                    ty.price_per_hour,
                    s.n_ps,
                    r.total_time,
                )),
                ..Outcome::default()
            })
        }
        (Op::Chaos { fleet, .. }, Report::Guarded(g)) => {
            let g = g.as_ref().ok_or("no feasible plan for the scenario")?;
            check_fleet(&g.plan, *fleet)?;
            for seg in &g.segments {
                check_run(seg)?;
            }
            ensure(g.guarded_time.is_finite() && g.guarded_time > 0.0, || {
                format!("guarded time {}", g.guarded_time)
            })?;
            ensure(
                g.realized_cost.is_finite() && g.realized_cost >= 0.0,
                || format!("realised cost {}", g.realized_cost),
            )?;
            Ok(Outcome {
                digest: digest(g)?,
                feasible: Some(true),
                plan_cost: Some(g.plan.predicted_cost),
                realized_cost: Some(g.realized_cost),
                pred_err: Some(relative_error(g.plan.predicted_time, g.guarded_time)),
                deadline_met: Some(g.met_deadline),
                ..Outcome::default()
            })
        }
        (Op::Chaos { fleet, .. }, Report::Elastic(e)) => {
            let e = e.as_ref().ok_or("no feasible plan for the scenario")?;
            check_fleet(&e.plan, *fleet)?;
            check_run(&e.training)?;
            ensure(e.training.iterations == e.plan.total_updates, || {
                format!(
                    "ran {} updates of a {}-update plan",
                    e.training.iterations, e.plan.total_updates
                )
            })?;
            ensure(
                e.realized_cost.is_finite() && e.realized_cost >= 0.0,
                || format!("realised cost {}", e.realized_cost),
            )?;
            Ok(Outcome {
                digest: digest(e)?,
                feasible: Some(true),
                plan_cost: Some(e.plan.predicted_cost),
                realized_cost: Some(e.realized_cost),
                pred_err: Some(relative_error(e.plan.predicted_time, e.training.total_time)),
                deadline_met: Some(e.met_deadline),
                revocations: e.training.revocations,
                repairs: e.training.repairs,
            })
        }
        _ => Err("report does not match the op".to_string()),
    }
}
