//! The repository's benchmark: runs one named workload of the Cynthia
//! pipeline from a seed, on one thread, checks every output, and prints
//! its metrics. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload submit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The full record (host, build, digest, per-class latencies, outcomes) is
//! written to `perfbench/records/`.

mod harness;
mod inputs;
mod layers;
mod ops;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use serde::{Number, Value};

use harness::{run, Config, RunResult};
use inputs::{Kind, Size};
use layers::Metric;

/// An untraced run sets up at least `SETUPS` times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

const USAGE: &str = "usage: perfbench --workload <submit|train|chaos> --seed <n> \
                     --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(if s.is_finite() && s >= 0.0 {
                    s
                } else {
                    return Err(bad());
                });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        setups: SETUPS,
        setup_seconds: SETUP_SECONDS,
    })
}

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn int(v: u64) -> Value {
    Value::Number(Number::Int(v as i64))
}

fn text(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    object(vec![("value", num(m.value)), ("unit", text(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The commit checked out in the working directory, if it is a git tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn record(cfg: &Config, r: &RunResult, correct: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("workload", text(cfg.kind.name())),
        ("seed", int(cfg.seed)),
        ("seconds", num(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        (
            "host",
            object(vec![
                ("nproc", int(nproc as u64)),
                ("threads_used", int(1)),
                ("cpu", text(cpu_model())),
            ]),
        ),
        (
            "build",
            object(vec![
                (
                    "profile",
                    text(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
                ("obs_hooks_compiled", Value::Bool(r.obs_hooks)),
                ("commit", text(commit())),
            ]),
        ),
        ("correct", Value::Bool(correct)),
        ("attempted", int(r.attempted)),
        ("failed", int(r.failed)),
        ("errors", Value::Array(r.errors.iter().map(text).collect())),
        ("digest", text(format!("{:016x}", r.digest))),
        ("pool_ops", int(r.pool as u64)),
        ("passes", int(r.passes as u64)),
        ("setups", int(r.setup_samples_s.len() as u64)),
        (
            "classes",
            Value::Array(
                r.classes
                    .iter()
                    .map(|c| {
                        object(vec![
                            ("class", text(c.class)),
                            ("ops", int(c.ops as u64)),
                            ("median_ms", num(c.median_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics_object(&r.metrics)),
        ("outcomes", metrics_object(&r.outcomes)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = run(&cfg);
    let correct = r.failed == 0 && r.metrics.iter().all(|m| m.value.is_finite());

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("records");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        cfg.kind.name(),
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let saved = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&record(&cfg, &r, correct))
                .expect("a JSON value serializes"),
        )
    });
    if let Err(e) = saved {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    for e in &r.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    for c in &r.classes {
        eprintln!(
            "  {:<24} {:>7} ops  median {:>10.4} ms",
            c.class, c.ops, c.median_ms
        );
    }
    eprintln!(
        "{} seed {}: {} ops in {} passes of {}, digest {:016x}",
        cfg.kind.name(),
        cfg.seed,
        r.attempted,
        r.passes,
        r.pool,
        r.digest
    );

    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(r.attempted)),
        ("failed", int(r.failed)),
        ("metrics", metrics_object(&r.metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("a JSON value serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The runs toggle the process-wide tracer and kill switch.
    static OBS: Mutex<()> = Mutex::new(());

    fn tiny(kind: Kind, trace: bool) -> RunResult {
        run(&Config {
            kind,
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
            setups: 1,
            setup_seconds: 0.0,
        })
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let bench: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        bench[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn assert_reports(r: &RunResult, expected: &[(String, String)]) {
        let got: Vec<(String, String)> = r
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, expected);
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn tiny_runs_report_every_metric_with_its_unit_and_no_errors() {
        let _g = OBS.lock().expect("no test panicked holding the lock");
        for kind in Kind::ALL {
            let plain = tiny(kind, false);
            assert_reports(&plain, &declared("end_to_end"));
            let traced = tiny(kind, true);
            assert_reports(&traced, &declared("per_layer"));
            for r in [&plain, &traced] {
                assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.errors);
                assert!(r.attempted > 0);
            }
            let value =
                |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).map(|m| m.value);
            assert_eq!(value(&plain.outcomes, "error_frac"), Some(0.0));
            assert_eq!(value(&traced.metrics, "error_frac"), Some(0.0));
            assert_eq!(
                plain.digest,
                traced.digest,
                "{}: tracing changed a report",
                kind.name()
            );

            // Layer isolation: each workload exercises the layers it names.
            let layer = |name: &str| value(&traced.metrics, name).expect("metric present");
            match kind {
                Kind::Submit => assert_eq!(layer("engine.events"), 0.0),
                Kind::Train => assert_eq!(layer("provisioner.plans"), 0.0),
                Kind::Chaos => {
                    assert!(layer("engine.rollbacks") > 0.0);
                    assert!(layer("fluid.flows_cancelled") > 0.0);
                }
            }
        }
    }

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        let _g = OBS.lock().expect("no test panicked holding the lock");
        for kind in Kind::ALL {
            let a = inputs::setup(kind, 11, Size::Tiny).ops;
            let b = inputs::setup(kind, 11, Size::Tiny).ops;
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn another_seed_generates_other_inputs() {
        let _g = OBS.lock().expect("no test panicked holding the lock");
        for kind in Kind::ALL {
            let a = inputs::setup(kind, 11, Size::Tiny).ops;
            let b = inputs::setup(kind, 12, Size::Tiny).ops;
            assert_ne!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let cfg = parse_args(&args("--workload chaos --seed 3 --seconds 10 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (cfg.kind, cfg.seed, cfg.seconds, cfg.trace),
            (Kind::Chaos, 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload chaos --seed -1 --seconds 10 --trace 1",
            "--workload chaos --seed 3 --seconds 10 --trace 2",
            "--workload chaos --seed 3 --seconds 10",
            "--workload chaos --seed 3 --seconds 10 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
