//! The Meryn simulator benchmark: time-to-report at 1 thread and at
//! `nproc`, checkpoint cost and paper fidelity on three workloads, and a
//! traced per-layer breakdown of the same workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hyperscale-ci|paper-sweep --seconds S [--seed N] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). The lines before it are the human-readable table and
//! the full result record. See `perfbench/README.md`.

// The benchmark measures wall-clock time; the simulator never reads it.
#![allow(clippy::disallowed_methods)]

mod calib;
mod e2e;
mod layers;
mod stats;
mod workload;

use std::time::Instant;

use serde_json::Value;

use crate::stats::{timing_record, Tally};
use crate::workload::Workload;

/// Where the traced run writes its spans, relative to the repository
/// root.
pub const OUT_DIR: &str = ".perfbench-out";

/// The wall clock, in one place.
pub fn now() -> Instant {
    Instant::now()
}

/// A pool of `threads` workers for `rayon::ThreadPool::install`.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builder never fails")
}

/// Calls `sample` at least `min_reps` times and until `min_secs` have
/// passed (at most 100,000 times), collecting its results.
pub fn repeat_timed<T, E>(
    min_reps: usize,
    min_secs: f64,
    mut sample: impl FnMut() -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let start = now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (start.elapsed().as_secs_f64() < min_secs && samples.len() < 100_000)
    {
        samples.push(sample()?);
    }
    Ok(samples)
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    /// Worker threads behind the value.
    threads: usize,
    /// `None` when the measurement failed (the run is then not correct).
    value: Option<f64>,
    /// The timing samples the value derives from, in the metric's unit,
    /// when it is a timing.
    timing: Option<Vec<f64>>,
    /// The same samples before scaling to the nominal host, when they
    /// were scaled (see `calib`).
    raw: Option<Vec<f64>>,
    /// False when the metric belongs to another workload and is reported
    /// here only because every result carries every metric.
    applies: bool,
}

impl Metric {
    /// A metric derived from timing samples (medians, rates, tails).
    pub fn timed(
        name: &'static str,
        unit: &'static str,
        threads: usize,
        samples: &[f64],
        value: Option<f64>,
    ) -> Self {
        Metric {
            name,
            unit,
            threads,
            value,
            timing: Some(samples.to_vec()),
            raw: None,
            applies: true,
        }
    }

    /// Keeps the unscaled samples of a timing scaled to the nominal host.
    pub fn with_raw(self, raw: &[f64]) -> Self {
        Metric {
            raw: Some(raw.to_vec()),
            ..self
        }
    }

    /// A single measured value or count.
    pub fn single(
        name: &'static str,
        unit: &'static str,
        threads: usize,
        value: Option<f64>,
    ) -> Self {
        Metric {
            name,
            unit,
            threads,
            value,
            timing: None,
            raw: None,
            applies: true,
        }
    }

    /// Marks the metric as not this workload's.
    pub fn not_applicable(self) -> Self {
        Metric {
            applies: false,
            ..self
        }
    }
}

/// What one run of the benchmark measured.
pub struct Outcome {
    metrics: Vec<Metric>,
    tally: Tally,
    /// The workload seed the run used.
    seed: u64,
    /// One-line remarks printed with the table and kept in the record.
    notes: Vec<String>,
}

struct Args {
    workload: &'static Workload,
    seed: Option<u64>,
    /// How long the timed reports or traced passes run: the
    /// `run_seconds` of `BENCHMARK.json`, which the caller passes.
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: meryn-perfbench --workload <{}> --seconds S [--seed N] [--trace 0|1]",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut rss_probe) = (None, None, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--rss-probe" => rss_probe = true,
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
        rss_probe,
    }
}

/// The commit of the checkout, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let resolved = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(r) => read(r).map(|s| s.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_owned))
        }),
    });
    resolved.unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    if args.rss_probe {
        if let Err(e) = e2e::rss_probe_child(w, args.seed, nproc) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = if args.trace {
        layers::run(w, args.seed, args.seconds, nproc)
    } else {
        e2e::run(w, args.seed, args.seconds, nproc)
    };
    let mut outcome = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if let (workload::Kind::HyperscaleCi, Some(seed)) = (w.kind, args.seed) {
        outcome.notes.push(format!(
            "--seed {seed} not applied: hyperscale-ci runs only at its committed seeds (see perfbench/README.md)"
        ));
    }
    print_result(w, &args, nproc, &outcome);
}

fn print_result(w: &Workload, args: &Args, nproc: usize, outcome: &Outcome) {
    let tally = outcome.tally;
    let correct = tally.failed == 0
        && outcome
            .metrics
            .iter()
            .all(|m| m.value.is_some() || !m.applies);
    println!(
        "{} — {} run, workload seed {}, nproc {nproc}",
        w.name,
        if args.trace {
            "traced per-layer"
        } else {
            "end-to-end"
        },
        outcome.seed
    );
    for m in &outcome.metrics {
        let samples = m
            .timing
            .as_ref()
            .map_or(String::new(), |s| format!("  (n={})", s.len()));
        let applies = if m.applies { "" } else { "  not applicable" };
        match m.value {
            Some(v) => println!(
                "  {:<28} {v:>16.6} {:<14} threads={}{samples}{applies}",
                m.name, m.unit, m.threads
            ),
            None => println!(
                "  {:<28} {:>16} {:<14} threads={}",
                m.name, "FAILED", m.unit, m.threads
            ),
        }
    }
    println!(
        "  {:<28} {:>16.6} {:<14} ({} of {} runs failed)",
        "failed_frac",
        tally.failed_frac(),
        "ratio",
        tally.failed,
        tally.attempted
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }

    // The shared result record.
    let metric_record = |m: &Metric| {
        let mut fields = vec![
            ("value".into(), m.value.map_or(Value::Null, Value::F64)),
            ("unit".into(), Value::Str(m.unit.into())),
            ("threads".into(), Value::U64(m.threads as u64)),
            ("applies".into(), Value::Bool(m.applies)),
        ];
        if let Some(samples) = &m.timing {
            fields.push(("timing".into(), timing_record(samples)));
        }
        if let Some(samples) = &m.raw {
            fields.push(("raw_timing".into(), timing_record(samples)));
        }
        (m.name.to_owned(), Value::Map(fields))
    };
    let record = Value::Map(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("spec".into(), Value::Str(w.spec.into())),
        ("workload_seed".into(), Value::U64(outcome.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("nproc".into(), Value::U64(nproc as u64)),
        (
            "rustc".into(),
            Value::Str(env!("PERFBENCH_RUSTC_VERSION").into()),
        ),
        ("commit".into(), Value::Str(commit())),
        ("failed_frac".into(), Value::F64(tally.failed_frac())),
        (
            "metrics".into(),
            Value::Map(outcome.metrics.iter().map(metric_record).collect()),
        ),
        (
            "notes".into(),
            Value::Seq(
                outcome
                    .notes
                    .iter()
                    .map(|n| Value::Str(n.clone()))
                    .collect(),
            ),
        ),
    ]);
    println!(
        "record: {}",
        serde_json::to_string(&record).expect("record values serialize")
    );

    // The result line.
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = m.value.map_or(Value::Null, Value::F64);
            let fields = vec![
                ("value".into(), value),
                ("unit".into(), Value::Str(m.unit.into())),
            ];
            (m.name.to_owned(), Value::Map(fields))
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result values serialize")
    );
}
