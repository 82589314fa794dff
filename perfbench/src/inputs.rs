//! The three workloads: what each op is, the weighted mixes, and the
//! set-up state (catalog, profiles, generated inputs) the ops run against.
//!
//! Every input derives from the run's `--seed` through [`Rng`]; the
//! program under test only ever sees the generated values.

use cynthia::core::provisioner::plan;
use cynthia::prelude::*;

use crate::layers::span;
use crate::stats::Rng;

/// Instance type every profile is measured on, as in the paper (Sec. 5.3).
const BASELINE_TYPE: &str = "m4.xlarge";

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Alg. 1 `plan` over a stream of job submissions.
    Submit,
    /// Fault-free exact engine runs over a fixed mix of cluster shapes.
    Train,
    /// SLO-guarded runs under fault plans and elastic runs under spot
    /// revocations.
    Chaos,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Submit, Kind::Train, Kind::Chaos];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Submit => "submit",
            Kind::Train => "train",
            Kind::Chaos => "chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How many inputs to generate: the weighted mix the benchmark measures,
/// or one input per class (the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// The Table 1 jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    Resnet32Asp,
    MnistBsp,
    Vgg19Asp,
    Cifar10Bsp,
}

impl Job {
    const ALL: [Job; 4] = [
        Job::Resnet32Asp,
        Job::MnistBsp,
        Job::Vgg19Asp,
        Job::Cifar10Bsp,
    ];

    fn workload(self) -> Workload {
        match self {
            Job::Resnet32Asp => Workload::resnet32_asp(),
            Job::MnistBsp => Workload::mnist_bsp(),
            Job::Vgg19Asp => Workload::vgg19_asp(),
            Job::Cifar10Bsp => Workload::cifar10_bsp(),
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One class of `submit` goals. The target loss is the job's loss floor
/// `β1` times a factor drawn from `floor_factor`.
#[derive(Debug)]
pub struct GoalClass {
    pub name: &'static str,
    pub job: Job,
    pub deadline_secs: (f64, f64),
    pub floor_factor: (f64, f64),
    /// Goals of this class per block of 20.
    pub weight: usize,
}

/// `submit` mix. BSP bands are narrow (2–6 µs per plan), ASP bands wide
/// (hundreds of candidates, 150–650 µs). With 80% of goals on the fast
/// side, op_p50_ms falls among the cifar10 BSP plans and op_p90_ms and
/// op_p99_ms among the ResNet-32 ASP plans, each inside a cluster rather
/// than on a boundary.
pub const GOAL_CLASSES: [GoalClass; 5] = [
    GoalClass {
        name: "mnist-bsp",
        job: Job::MnistBsp,
        deadline_secs: (60.0, 3600.0),
        floor_factor: (2.0, 10.0),
        weight: 5,
    },
    GoalClass {
        name: "cifar10-bsp",
        job: Job::Cifar10Bsp,
        deadline_secs: (900.0, 7200.0),
        floor_factor: (1.3, 3.0),
        weight: 9,
    },
    GoalClass {
        // Faster than any cifar10 fleet in the catalog can train.
        name: "cifar10-bsp-infeasible",
        job: Job::Cifar10Bsp,
        deadline_secs: (30.0, 90.0),
        floor_factor: (1.3, 3.0),
        weight: 2,
    },
    GoalClass {
        name: "resnet32-asp",
        job: Job::Resnet32Asp,
        deadline_secs: (3600.0, 14400.0),
        floor_factor: (1.6, 3.5),
        weight: 3,
    },
    GoalClass {
        name: "vgg19-asp",
        job: Job::Vgg19Asp,
        deadline_secs: (5400.0, 14400.0),
        floor_factor: (1.5, 2.5),
        weight: 1,
    },
];

/// One `train` shape: a fixed cluster, fault-free, full detail.
#[derive(Debug)]
pub struct TrainShape {
    pub name: &'static str,
    pub job: Job,
    pub type_name: &'static str,
    pub n_workers: u32,
    pub n_ps: u32,
    pub updates: u64,
    /// Runs of this shape per block of 20.
    pub weight: usize,
}

/// `train` mix. The ASP shapes are cheap (3–15 ms, few events); the BSP
/// shapes cost 100–300 ms each and hold the percentiles: op_p50_ms falls
/// among the cifar10 runs (one saturated PS NIC) and op_p90_ms and
/// op_p99_ms among the mnist runs (12 workers and 2 PS, many flows in
/// every rate solve), so a fast path that helps one shape and hurts the
/// other moves them apart.
pub const TRAIN_SHAPES: [TrainShape; 4] = [
    TrainShape {
        name: "resnet32-asp-c4x10+1",
        job: Job::Resnet32Asp,
        type_name: "c4.xlarge",
        n_workers: 10,
        n_ps: 1,
        updates: 400,
        weight: 3,
    },
    TrainShape {
        name: "vgg19-asp-m4x8+2",
        job: Job::Vgg19Asp,
        type_name: "m4.xlarge",
        n_workers: 8,
        n_ps: 2,
        updates: 400,
        weight: 4,
    },
    TrainShape {
        name: "cifar10-bsp-c4x6+1",
        job: Job::Cifar10Bsp,
        type_name: "c4.xlarge",
        n_workers: 6,
        n_ps: 1,
        updates: 400,
        weight: 7,
    },
    TrainShape {
        name: "mnist-bsp-m4x12+2",
        job: Job::MnistBsp,
        type_name: "m4.xlarge",
        n_workers: 12,
        n_ps: 2,
        updates: 16,
        weight: 6,
    },
];

/// What disturbs a `chaos` scenario.
#[derive(Debug, Clone, Copy)]
pub enum Disturbance {
    /// `run_guarded` under an `InjectorConfig::chaos` plan with this many
    /// events per entity-hour, over a horizon of one deadline.
    Faults { per_hour: f64 },
    /// `run_elastic` with `RepairPolicy::spot_with_fallback()` under
    /// exponential revocations at this rate.
    Revocations { per_hour: f64 },
}

/// One class of `chaos` scenario.
#[derive(Debug)]
pub struct ChaosKind {
    pub name: &'static str,
    pub job: Job,
    pub deadline_secs: f64,
    pub target_loss: f64,
    pub disturbance: Disturbance,
    /// Scenarios of this class per block of 20.
    pub weight: usize,
}

/// `chaos` mix. Every class stays within about 15–200 ms per scenario,
/// so no scenario dominates. The VGG-19 plan has 2 PS, so PS failover
/// re-shards; the ResNet-32 elastic runs replan through `EvalCache`.
/// op_p50_ms falls among the guarded VGG-19 runs and op_p90_ms and
/// op_p99_ms among the elastic cifar10 runs.
pub const CHAOS_KINDS: [ChaosKind; 5] = [
    ChaosKind {
        name: "guarded-resnet32-asp",
        job: Job::Resnet32Asp,
        deadline_secs: 3600.0,
        target_loss: 1.6,
        disturbance: Disturbance::Faults { per_hour: 12.0 },
        weight: 2,
    },
    ChaosKind {
        name: "elastic-resnet32-asp",
        job: Job::Resnet32Asp,
        deadline_secs: 7200.0,
        target_loss: 0.9,
        disturbance: Disturbance::Revocations { per_hour: 4.0 },
        weight: 2,
    },
    ChaosKind {
        name: "guarded-vgg19-asp-2ps",
        job: Job::Vgg19Asp,
        deadline_secs: 3600.0,
        target_loss: 0.5,
        disturbance: Disturbance::Faults { per_hour: 12.0 },
        weight: 9,
    },
    ChaosKind {
        name: "guarded-cifar10-bsp",
        job: Job::Cifar10Bsp,
        deadline_secs: 1200.0,
        target_loss: 2.6,
        disturbance: Disturbance::Faults { per_hour: 36.0 },
        weight: 3,
    },
    ChaosKind {
        name: "elastic-cifar10-bsp",
        job: Job::Cifar10Bsp,
        deadline_secs: 300.0,
        target_loss: 3.0,
        disturbance: Disturbance::Revocations { per_hour: 12.0 },
        weight: 4,
    },
];

impl ChaosKind {
    pub fn goal(&self) -> Goal {
        Goal {
            deadline_secs: self.deadline_secs,
            target_loss: self.target_loss,
        }
    }
}

/// One operation: the unit every latency is measured on.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Plan one job submission (index into [`GOAL_CLASSES`]).
    Submit { class: usize, goal: Goal },
    /// One engine run of a [`TRAIN_SHAPES`] entry with this engine seed.
    Train { shape: usize, seed: u64 },
    /// One [`CHAOS_KINDS`] scenario. `fleet` is the `(workers, PS)` plan
    /// the scenario's own profile leads Alg. 1 to; fault plans are drawn
    /// for it.
    Chaos {
        kind: usize,
        seed: u64,
        fleet: (u32, u32),
    },
}

impl Op {
    /// Name of the op's class, for per-class reporting and warm-up.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Submit { class, .. } => GOAL_CLASSES[*class].name,
            Op::Train { shape, .. } => TRAIN_SHAPES[*shape].name,
            Op::Chaos { kind, .. } => CHAOS_KINDS[*kind].name,
        }
    }
}

/// Set-up state shared by the ops of one run.
pub struct Env {
    pub catalog: Catalog,
    /// The Table 1 workloads, by [`Job::index`].
    pub workloads: Vec<Workload>,
    /// Profiles and models by [`Job::index`] (empty for `chaos`, whose
    /// scenarios profile inside the program).
    pub profiles: Vec<ProfileData>,
    pub models: Vec<CynthiaModel>,
    /// Loss models with the workloads' true `β`, as the elastic layer uses.
    pub losses: Vec<FittedLossModel>,
    /// `train` workloads with each shape's update count, by shape index.
    pub train_workloads: Vec<Workload>,
    pub ops: Vec<Op>,
}

fn true_loss(w: &Workload) -> FittedLossModel {
    FittedLossModel {
        sync: w.sync,
        beta0: w.convergence.beta0,
        beta1: w.convergence.beta1,
        r_squared: 1.0,
    }
}

fn profile(w: &Workload, baseline: &InstanceType, seed: u64) -> ProfileData {
    let _span = span("profiler.profile_workload");
    profile_workload(w, baseline, seed)
}

/// Builds the catalog, profiles and inputs of one run from its seed.
pub fn setup(kind: Kind, seed: u64, size: Size) -> Env {
    let mut rng = Rng::new(seed);
    let catalog = default_catalog();
    let baseline = catalog.expect(BASELINE_TYPE).clone();
    let workloads: Vec<Workload> = Job::ALL.iter().map(|j| j.workload()).collect();
    let losses: Vec<FittedLossModel> = workloads.iter().map(true_loss).collect();
    // A full pool repeats the weighted block of 20: 2000 submissions, 20
    // engine runs, 40 scenarios. The pool runs in whole passes, so a
    // pass takes 0.1–4 s.
    let blocks = match kind {
        Kind::Submit => 100,
        Kind::Train => 1,
        Kind::Chaos => 2,
    };
    let count = |weight: usize| {
        if size == Size::Full {
            weight * blocks
        } else {
            1
        }
    };

    let profile_seed = rng.next_u64();
    let profiles: Vec<ProfileData> = if kind == Kind::Chaos {
        Vec::new()
    } else {
        workloads
            .iter()
            .map(|w| profile(w, &baseline, profile_seed))
            .collect()
    };
    let models = profiles
        .iter()
        .map(|p| CynthiaModel::new(p.clone()))
        .collect();

    let mut ops = Vec::new();
    match kind {
        Kind::Submit => {
            for (class, c) in GOAL_CLASSES.iter().enumerate() {
                let floor = workloads[c.job.index()].convergence.beta1;
                for _ in 0..count(c.weight) {
                    let goal = Goal {
                        deadline_secs: rng.range(c.deadline_secs.0, c.deadline_secs.1),
                        target_loss: floor * rng.range(c.floor_factor.0, c.floor_factor.1),
                    };
                    ops.push(Op::Submit { class, goal });
                }
            }
        }
        Kind::Train => {
            for (shape, s) in TRAIN_SHAPES.iter().enumerate() {
                for _ in 0..count(s.weight) {
                    ops.push(Op::Train {
                        shape,
                        seed: rng.next_u64(),
                    });
                }
            }
        }
        Kind::Chaos => {
            for (index, k) in CHAOS_KINDS.iter().enumerate() {
                let w = &workloads[k.job.index()];
                for _ in 0..count(k.weight) {
                    let seed = rng.next_u64();
                    // The same profile and plan the scenario will compute,
                    // so the fault plan indexes workers and PS it will have.
                    let p = profile(w, &baseline, seed);
                    let fleet = plan(
                        &p,
                        &losses[k.job.index()],
                        &catalog,
                        &k.goal(),
                        &PlannerOptions::default(),
                    )
                    .map_or((0, 0), |p| (p.n_workers, p.n_ps));
                    ops.push(Op::Chaos {
                        kind: index,
                        seed,
                        fleet,
                    });
                }
            }
        }
    }
    rng.shuffle(&mut ops);

    let train_workloads = TRAIN_SHAPES
        .iter()
        .map(|s| workloads[s.job.index()].clone().with_iterations(s.updates))
        .collect();
    Env {
        catalog,
        workloads,
        profiles,
        models,
        losses,
        train_workloads,
        ops,
    }
}
