//! The traced run (`--trace 1`): the same workloads broken down by
//! layer, timed from outside through public functions of
//! `meryn-scenario`, `meryn-workloads` and `meryn-core` only.
//!
//! Algorithm 1 and 2 are observed through the policy registry: every
//! registered policy is replaced by a delegating wrapper of the same
//! name, so reports do not change. Each `decide` call is timed; bids
//! are only counted, because a clock around each of hyperscale-ci's
//! millions of bids would cost more than the bids and inflate
//! Algorithm 1's share.

use std::io::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use meryn_core::app::AppMap;
use meryn_core::bidding::{Bid, BidRequest};
use meryn_core::cluster_manager::VirtualCluster;
use meryn_core::policy::{self, BiddingPolicy, PlacementContext, PlacementPolicy};
use meryn_core::protocol::{Decision, ProtocolParams};
use meryn_core::report::RunReport;
use meryn_core::Platform;
use meryn_scenario::spec::{WorkloadModifier, WorkloadSpec};
use meryn_scenario::sweep::fanout;
use meryn_scenario::{run_scenario, Scenario};
use meryn_sim::SimTime;
use meryn_workloads::generators::{GeneratedChunks, DEFAULT_CHUNK};
use meryn_workloads::paper_workload;
use serde_json::Value;

use crate::e2e::Paused;
use crate::stats::{median, percentile, Tally};
use crate::workload::{attach, deploy, digest, guarded, jobs, Job, Workload};
use crate::{pool, repeat_timed, Metric, Outcome};

/// Slice length of the traced event loop [simulated s]: `run_until` on
/// an hourly grid.
const SLICE_SECS: u64 = 3600;
/// Checkpoint round trips of the traced run: at least this many, and
/// more until this long has passed.
const CHECKPOINT_MIN_REPS: usize = 3;
const CHECKPOINT_MIN_SECS: f64 = 1.0;

// Statistics only: no other data is published through these.
static DECISIONS: AtomicU64 = AtomicU64::new(0);
static DECIDE_NS: AtomicU64 = AtomicU64::new(0);
static QUEUED: AtomicU64 = AtomicU64::new(0);
static BIDS: AtomicU64 = AtomicU64::new(0);
static UNABLE: AtomicU64 = AtomicU64::new(0);

/// Times and counts Algorithm 1 decisions of the wrapped policy.
struct TracedPlacement(Arc<dyn PlacementPolicy>);

impl PlacementPolicy for TracedPlacement {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&self, ctx: &PlacementContext<'_>) -> Decision {
        let t0 = crate::now();
        let decision = self.0.decide(ctx);
        DECIDE_NS.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        DECISIONS.fetch_add(1, Relaxed);
        if decision == Decision::Queue {
            QUEUED.fetch_add(1, Relaxed);
        }
        decision
    }
}

/// Counts Algorithm 2 bids of the wrapped policy, and the wasted ones.
struct TracedBidding(Arc<dyn BiddingPolicy>);

impl BiddingPolicy for TracedBidding {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn bid(
        &self,
        vc: &VirtualCluster,
        apps: &AppMap,
        req: BidRequest,
        now: SimTime,
        params: &ProtocolParams,
    ) -> Bid {
        let bid = self.0.bid(vc, apps, req, now, params);
        BIDS.fetch_add(1, Relaxed);
        if bid == Bid::Unable {
            UNABLE.fetch_add(1, Relaxed);
        }
        bid
    }
}

/// Every registered policy as the simulator ships it (the scenario
/// crate's extensions included), captured before any wrapper.
struct Registered {
    placements: Vec<Arc<dyn PlacementPolicy>>,
    biddings: Vec<Arc<dyn BiddingPolicy>>,
}

impl Registered {
    fn capture() -> Self {
        meryn_scenario::policies::install();
        Registered {
            placements: policy::placement_names()
                .iter()
                .map(|name| policy::placement(name).expect("listed policies resolve"))
                .collect(),
            biddings: policy::bidding_names()
                .iter()
                .map(|name| policy::bidding(name).expect("listed policies resolve"))
                .collect(),
        }
    }

    /// Registers the delegating wrappers (`on`) or the originals under
    /// the same names. Platforms resolve policies at deployment, so the
    /// choice holds for runs started afterwards.
    fn trace(&self, on: bool) {
        for p in &self.placements {
            let p = Arc::clone(p);
            policy::register_placement(if on { Arc::new(TracedPlacement(p)) } else { p });
        }
        for b in &self.biddings {
            let b = Arc::clone(b);
            policy::register_bidding(if on { Arc::new(TracedBidding(b)) } else { b });
        }
    }
}

/// The policy counters since the last call.
#[derive(Debug, Default, Clone, Copy)]
struct PolicyCounts {
    decisions: u64,
    decide_ns: u64,
    queued: u64,
    bids: u64,
    unable: u64,
}

fn take_policy_counts() -> PolicyCounts {
    PolicyCounts {
        decisions: DECISIONS.swap(0, Relaxed),
        decide_ns: DECIDE_NS.swap(0, Relaxed),
        queued: QUEUED.swap(0, Relaxed),
        bids: BIDS.swap(0, Relaxed),
        unable: UNABLE.swap(0, Relaxed),
    }
}

/// One timed call at a layer boundary. Spans of one simulation share
/// its run id (the job's index in the report).
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, run: Option<usize>) -> usize {
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns();
    }

    /// Appends another log's spans, re-indexing their parents; its
    /// roots become children of `parent`.
    fn absorb(&mut self, other: Vec<Span>, parent: usize) {
        let offset = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + offset));
            s
        }));
    }

    fn write_jsonl(&self, path: &str) -> io::Result<()> {
        let opt = |x: Option<usize>| x.map_or(Value::Null, |x| Value::U64(x as u64));
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::Map(vec![
                ("id".into(), Value::U64(id as u64)),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("parent".into(), opt(s.parent)),
                ("run".into(), opt(s.run)),
            ]);
            let line = serde_json::to_string(&line).map_err(io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// What one simulation of a pass measured.
struct JobOut {
    new_s: f64,
    enqueue_s: f64,
    run_s: f64,
    finalize_s: f64,
    wall_ms: f64,
    slices_ms: Vec<f64>,
    events: u64,
    control_events: u64,
    parallel_runs: u64,
    pool_vms: u64,
    audit: Result<(), String>,
    digest: u64,
    apps: usize,
    completion_secs: f64,
    total_cost_units: f64,
    rejected: u64,
    violations: u64,
    rounds: Option<u64>,
    bursts: u64,
    suspensions: u64,
    escalations: u64,
    peak_cloud: f64,
    spans: Vec<Span>,
}

/// Drives one job through the engine's public API. Traced, it runs the
/// event loop as `run_until` slices on the hourly grid and keeps spans;
/// untraced, it calls `run_to_completion` once.
fn drive(
    scenario: &Scenario,
    job: &Job,
    run: usize,
    epoch: Instant,
    traced: bool,
) -> Result<JobOut, String> {
    guarded(|| {
        let mut spans = Spans::new(epoch);
        let root = spans.open("job", None, Some(run));
        let t0 = crate::now();
        let span = spans.open("engine.new", Some(root), Some(run));
        let mut platform = deploy(scenario, job.cfg.clone());
        spans.close(span);
        let t1 = crate::now();
        let span = spans.open("engine.enqueue", Some(root), Some(run));
        attach(&mut platform, &job.input)?;
        spans.close(span);
        let t2 = crate::now();
        let run_span = spans.open("engine.run", Some(root), Some(run));
        let mut slices_ms = Vec::new();
        if traced {
            for hour in 1.. {
                let span = spans.open("engine.slice", Some(run_span), Some(run));
                let t = crate::now();
                let more = platform.run_until(SimTime::from_secs(hour * SLICE_SECS));
                slices_ms.push(t.elapsed().as_secs_f64() * 1e3);
                spans.close(span);
                if !more {
                    break;
                }
            }
        } else {
            platform.run_to_completion();
        }
        spans.close(run_span);
        let t3 = crate::now();
        let counts = platform.shard_event_counts();
        let control_events = counts
            .iter()
            .find(|(q, _)| q == "control")
            .map_or(0, |c| c.1);
        let parallel_runs = platform.parallel_runs();
        let pool_vms = platform.pool().vms().count() as u64;
        let audit = platform.audit_invariants();
        let t4 = crate::now();
        let span = spans.open("engine.finalize", Some(root), Some(run));
        let report = platform.finalize();
        spans.close(span);
        let t5 = crate::now();
        spans.close(root);
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        Ok(JobOut {
            new_s: (t1 - t0).as_secs_f64(),
            enqueue_s: (t2 - t1).as_secs_f64(),
            run_s: (t3 - t2).as_secs_f64(),
            finalize_s: (t5 - t4).as_secs_f64(),
            wall_ms: (t5 - t0).as_secs_f64() * 1e3,
            slices_ms,
            events: counts.iter().map(|c| c.1).sum(),
            control_events,
            parallel_runs,
            pool_vms,
            audit,
            digest: digest(&json),
            apps: report.apps_count(),
            completion_secs: report.completion_secs(),
            total_cost_units: report.total_cost().as_units_f64(),
            rejected: report.rejected as u64,
            violations: report.violations() as u64,
            rounds: report.aggregate.is_none().then(|| rounds(&report)),
            bursts: report.bursts,
            suspensions: report.suspensions,
            escalations: report.escalations,
            peak_cloud: report.peak_cloud,
            spans: spans.spans,
        })
    })
}

/// One pass over every job of the report, fanned out like
/// `run_scenario` fans them out.
fn pass(
    scenario: &Scenario,
    jobs: &[Job],
    epoch: Instant,
    traced: bool,
    nproc: usize,
) -> Vec<Result<JobOut, String>> {
    let runs: Vec<usize> = (0..jobs.len()).collect();
    pool(nproc).install(|| fanout(runs, |i| drive(scenario, &jobs[i], i, epoch, traced)))
}

/// Runs the traced breakdown of `w` at `seed`: untraced and traced
/// passes over the report's jobs for `seconds`.
pub fn run(w: &Workload, seed: Option<u64>, seconds: f64, nproc: usize) -> Result<Outcome, String> {
    let err = |e: io::Error| format!("{}: {e}", w.name);
    let epoch = crate::now();
    let mut spans = Spans::new(epoch);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();

    // scenario: spec parse, workload materialization, report JSON.
    let span = spans.open("scenario.load", None, None);
    let loads = repeat_timed(5, 0.2, || {
        let t0 = crate::now();
        Scenario::load(w.spec).map(|_| t0.elapsed().as_secs_f64())
    })
    .map_err(err)?;
    spans.close(span);
    metrics.push(Metric::timed(
        "scenario.load_s",
        "s",
        1,
        &loads,
        median(&loads),
    ));
    let scenario = w.scenario(seed).map_err(err)?;

    let span = spans.open("workloads.generate", None, None);
    let gen = generation_ns_per_sub(&scenario).map_err(err)?;
    spans.close(span);
    metrics.push(Metric::timed(
        "workloads.gen_ns_per_sub",
        "ns/sub",
        1,
        &gen,
        median(&gen),
    ));

    let span = spans.open("scenario.materialize", None, None);
    let (jobs, materialize_s) = jobs(&scenario).map_err(err)?;
    spans.close(span);
    metrics.push(Metric::single(
        "scenario.materialize_s",
        "s",
        1,
        Some(materialize_s),
    ));
    if materialize_s == 0.0 {
        notes.push("scenario.materialize_s: 0, the workload is streamed".to_owned());
    }

    let span = spans.open("scenario.run_scenario", None, None);
    let reference = pool(nproc).install(|| {
        guarded(|| {
            let report = run_scenario(&scenario).map_err(|e| e.to_string())?;
            let to_json = repeat_timed(5, 0.05, || {
                let t0 = crate::now();
                std::hint::black_box(report.to_json());
                Ok::<_, String>(t0.elapsed().as_secs_f64())
            })?;
            Ok((report, to_json))
        })
    });
    spans.close(span);
    tally.record(reference.is_ok());
    let to_json = reference.as_ref().map_or(&[][..], |r| r.1.as_slice());
    metrics.push(Metric::timed(
        "scenario.report_json_s",
        "s",
        1,
        to_json,
        median(to_json),
    ));

    // Untraced and traced passes in ABBA order, so host drift weighs on
    // both alike; untraced passes run the policies as shipped.
    let registered = Registered::capture();
    let budget = Duration::from_secs_f64(seconds);
    let mut untraced_run_s = Vec::new();
    let mut traced = Vec::new();
    let mut digests: Option<Vec<Option<u64>>> = None;
    let start = crate::now();
    for rep in 0.. {
        if !untraced_run_s.is_empty() && !traced.is_empty() && start.elapsed() >= budget {
            break;
        }
        let tracing = [false, true, true, false][rep % 4];
        registered.trace(tracing);
        take_policy_counts();
        let name = if tracing {
            "pass.traced"
        } else {
            "pass.untraced"
        };
        let span = spans.open(name, None, None);
        let outs = pass(&scenario, &jobs, epoch, tracing, nproc);
        let counts = take_policy_counts();
        spans.close(span);
        let first = digests.get_or_insert_with(|| {
            outs.iter()
                .map(|o| o.as_ref().ok().map(|o| o.digest))
                .collect()
        });
        let mut ok_outs = Vec::new();
        for (i, out) in outs.into_iter().enumerate() {
            let ok = out
                .as_ref()
                .is_ok_and(|o| o.audit.is_ok() && Some(o.digest) == first[i]);
            report_failure(w, name, i, &out, ok);
            tally.record(ok);
            if let Ok(mut o) = out {
                spans.absorb(std::mem::take(&mut o.spans), span);
                ok_outs.push(o);
            }
        }
        if tracing {
            traced.push((ok_outs, counts));
        } else {
            untraced_run_s.push(ok_outs.iter().map(|o| o.run_s).sum::<f64>());
        }
    }
    registered.trace(false);

    // The job list must be run_scenario's: its base runs reproduce the
    // report's per-variant summaries.
    if let (Ok((report, _)), Some((outs, _))) = (&reference, traced.first()) {
        let per_variant = jobs.len() / report.variants.len().max(1);
        let ok = report.variants.iter().enumerate().all(|(v, variant)| {
            let Some(base) = &variant.base else {
                return true;
            };
            outs.get(v * per_variant).is_some_and(|o| {
                o.apps == base.apps
                    && o.completion_secs == base.completion_secs
                    && o.total_cost_units == base.total_cost_units
                    && o.rejected == base.rejected as u64
                    && o.violations == base.violations as u64
            })
        });
        if !ok {
            eprintln!(
                "{}: the driven jobs disagree with run_scenario's report",
                w.name
            );
        }
        tally.record(ok);
    }

    // Aggregate reports keep no per-app records, so negotiation rounds
    // come from each job run once more in full report mode.
    if scenario.outputs.aggregate {
        if let Some((outs, _)) = traced.first_mut() {
            let span = spans.open("sla.full_mode_rounds", None, None);
            let rounds = pool(nproc).install(|| full_mode_rounds(&scenario, &jobs, outs));
            spans.close(span);
            if let Err(e) = &rounds {
                eprintln!("{}: full-mode rerun for sla.rounds_per_app: {e}", w.name);
            }
            tally.record(rounds.is_ok());
            notes.push(
                "sla.rounds_per_app: from a full-report-mode rerun of every job, outside every timing".to_owned(),
            );
        }
    }

    engine_metrics(&mut metrics, &mut notes, &traced, &untraced_run_s, nproc);

    // checkpoint: one paused run, its round trips and resume check.
    let span = spans.open("checkpoint", None, None);
    let round_trips = pool(nproc).install(|| {
        let paused = Paused::start(&scenario, w.checkpoint_at_secs)?;
        let trips = repeat_timed(CHECKPOINT_MIN_REPS, CHECKPOINT_MIN_SECS, || {
            paused
                .round_trip()
                .map(|rt| (rt.save_secs, rt.restore_secs, rt.bytes))
        })?;
        Ok::<_, String>((trips, paused.resume_check()?))
    });
    spans.close(span);
    tally.record(round_trips.as_ref().is_ok_and(|(_, same)| *same));
    match &round_trips {
        Err(e) => eprintln!("{}: checkpoint round trip failed: {e}", w.name),
        Ok((_, false)) => eprintln!(
            "{}: the resumed run failed audit_invariants or its report differs from the uninterrupted one",
            w.name
        ),
        Ok(_) => {}
    }
    let trips = round_trips.map_or(Vec::new(), |(trips, _)| trips);
    metrics.push(Metric::single(
        "checkpoint.bytes",
        "bytes",
        nproc,
        trips.last().map(|t| t.2 as f64),
    ));
    let save: Vec<f64> = trips.iter().map(|t| t.0).collect();
    let restore: Vec<f64> = trips.iter().map(|t| t.1).collect();
    metrics.push(Metric::timed(
        "checkpoint.save_s",
        "s",
        nproc,
        &save,
        median(&save),
    ));
    metrics.push(Metric::timed(
        "checkpoint.restore_s",
        "s",
        nproc,
        &restore,
        median(&restore),
    ));

    let seed_used = w.seed_of(&scenario);
    let path = format!("{}/spans-{}-seed{seed_used}.jsonl", crate::OUT_DIR, w.name);
    match std::fs::create_dir_all(crate::OUT_DIR).and_then(|()| spans.write_jsonl(&path)) {
        Ok(()) => notes.push(format!("{} spans written to {path}", spans.spans.len())),
        Err(e) => eprintln!("{}: cannot write spans to {path}: {e}", w.name),
    }
    Ok(Outcome {
        metrics,
        tally,
        seed: seed_used,
        notes,
    })
}

/// Runs every job once in full report mode and stores its negotiation
/// rounds in `outs`, the same jobs' aggregate-mode results. Full mode must
/// agree with them on apps, completion time, cost, rejections and
/// violations, or this is an `Err`.
fn full_mode_rounds(scenario: &Scenario, jobs: &[Job], outs: &mut [JobOut]) -> Result<(), String> {
    if outs.len() != jobs.len() {
        return Err("a traced run failed, so its rounds cannot be compared".to_owned());
    }
    let runs: Vec<usize> = (0..jobs.len()).collect();
    let full = fanout(runs, |i| {
        guarded(|| {
            let mut platform =
                Platform::new(jobs[i].cfg.clone()).with_series_recording(scenario.outputs.series);
            attach(&mut platform, &jobs[i].input)?;
            platform.run_to_completion();
            Ok(platform.finalize())
        })
    });
    for (i, (report, out)) in full.into_iter().zip(outs).enumerate() {
        let report = report?;
        let agrees = report.apps_count() == out.apps
            && report.completion_secs() == out.completion_secs
            && report.total_cost().as_units_f64() == out.total_cost_units
            && report.rejected as u64 == out.rejected
            && report.violations() as u64 == out.violations;
        if !agrees {
            return Err(format!("run {i}: full and aggregate reports disagree"));
        }
        out.rounds = Some(rounds(&report));
    }
    Ok(())
}

/// Negotiation rounds summed over a full-mode report's applications.
fn rounds(report: &RunReport) -> u64 {
    report
        .apps
        .iter()
        .map(|a| u64::from(a.negotiation_rounds))
        .sum()
}

fn report_failure(w: &Workload, pass: &str, run: usize, out: &Result<JobOut, String>, ok: bool) {
    if ok {
        return;
    }
    match out {
        Err(e) => eprintln!("{}: {pass} run {run} failed: {e}", w.name),
        Ok(o) => match &o.audit {
            Err(e) => eprintln!("{}: {pass} run {run}: audit_invariants: {e}", w.name),
            Ok(()) => eprintln!(
                "{}: {pass} run {run}: report differs from the first pass's",
                w.name
            ),
        },
    }
}

/// Nanoseconds per generated submission: draining the workload's
/// generator alone (`GeneratedChunks`), or building the paper workload.
fn generation_ns_per_sub(scenario: &Scenario) -> io::Result<Vec<f64>> {
    match &scenario.workload {
        WorkloadSpec::Paper(params) => repeat_timed(5, 0.2, || {
            let t0 = crate::now();
            let n = std::hint::black_box(paper_workload(*params)).len();
            Ok(t0.elapsed().as_nanos() as f64 / n as f64)
        }),
        _ => {
            let (cfg, seed) = scenario
                .workload
                .streamable(&WorkloadModifier::default())
                .ok_or_else(|| io::Error::other("workload has no generator"))?;
            repeat_timed(1, 0.2, || {
                let t0 = crate::now();
                let n: usize = GeneratedChunks::new(&cfg, seed, DEFAULT_CHUNK)
                    .map(|chunk| std::hint::black_box(chunk).len())
                    .sum();
                Ok(t0.elapsed().as_nanos() as f64 / n as f64)
            })
        }
    }
}

/// The engine, policy, bidding, SLA and VMM rows. Timings are medians
/// over traced passes of per-pass sums; counts come from the first
/// traced pass (they repeat exactly: every pass reproduces the same
/// report bytes).
fn engine_metrics(
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
    traced: &[(Vec<JobOut>, PolicyCounts)],
    untraced_run_s: &[f64],
    nproc: usize,
) {
    let per_pass = |f: &dyn Fn(&JobOut) -> f64| -> Vec<f64> {
        traced
            .iter()
            .map(|(outs, _)| outs.iter().map(f).sum())
            .collect()
    };
    let timed = |metrics: &mut Vec<Metric>, name, samples: Vec<f64>| {
        let value = median(&samples);
        metrics.push(Metric::timed(name, "s", nproc, &samples, value));
    };
    let run_s = per_pass(&|o| o.run_s);
    let run_s_median = median(&run_s);
    timed(metrics, "engine.new_s", per_pass(&|o| o.new_s));
    timed(metrics, "engine.enqueue_s", per_pass(&|o| o.enqueue_s));
    timed(metrics, "engine.run_s", run_s.clone());
    timed(metrics, "engine.finalize_s", per_pass(&|o| o.finalize_s));

    let (first, counts) = match traced.first() {
        Some((outs, counts)) => (outs.as_slice(), *counts),
        None => (&[][..], PolicyCounts::default()),
    };
    let sum = |f: &dyn Fn(&JobOut) -> u64| first.iter().map(f).sum::<u64>();
    let count = |metrics: &mut Vec<Metric>, name, unit, value: f64| {
        metrics.push(Metric::single(name, unit, nproc, Some(value)));
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let events = sum(&|o| o.events) as f64;
    count(metrics, "engine.events", "count", events);
    metrics.push(Metric::single(
        "engine.ns_per_event",
        "ns/event",
        nproc,
        run_s_median.map(|s| ratio(s * 1e9, events)),
    ));
    let slices: Vec<f64> = traced
        .iter()
        .flat_map(|(outs, _)| outs.iter().flat_map(|o| o.slices_ms.iter().copied()))
        .collect();
    let job_ms: Vec<f64> = traced
        .iter()
        .flat_map(|(outs, _)| outs.iter().map(|o| o.wall_ms))
        .collect();
    metrics.push(Metric::timed(
        "engine.slice_ms_p50",
        "ms",
        nproc,
        &slices,
        percentile(&slices, 50.0),
    ));
    metrics.push(Metric::timed(
        "engine.slice_ms_p99",
        "ms",
        nproc,
        &slices,
        percentile(&slices, 99.0),
    ));
    let control = sum(&|o| o.control_events) as f64;
    count(metrics, "engine.control_events", "count", control);
    count(
        metrics,
        "engine.control_frac",
        "ratio",
        ratio(control, events),
    );
    count(
        metrics,
        "engine.parallel_runs",
        "count",
        sum(&|o| o.parallel_runs) as f64,
    );

    count(metrics, "scenario.sweep.runs", "count", first.len() as f64);
    metrics.push(Metric::timed(
        "scenario.sweep.run_ms_p50",
        "ms",
        nproc,
        &job_ms,
        percentile(&job_ms, 50.0),
    ));
    metrics.push(Metric::timed(
        "scenario.sweep.run_ms_p99",
        "ms",
        nproc,
        &job_ms,
        percentile(&job_ms, 99.0),
    ));

    let decide_s: Vec<f64> = traced
        .iter()
        .map(|(_, c)| c.decide_ns as f64 / 1e9)
        .collect();
    let decide_share: Vec<f64> = decide_s
        .iter()
        .zip(&run_s)
        .map(|(d, r)| ratio(*d, *r))
        .collect();
    count(
        metrics,
        "policy.decisions",
        "count",
        counts.decisions as f64,
    );
    timed(metrics, "policy.decide_s", decide_s);
    metrics.push(Metric::single(
        "policy.decide_share",
        "ratio",
        nproc,
        median(&decide_share),
    ));
    count(
        metrics,
        "policy.queue_frac",
        "ratio",
        ratio(counts.queued as f64, counts.decisions as f64),
    );
    count(metrics, "bidding.bids", "count", counts.bids as f64);
    count(
        metrics,
        "bidding.bids_per_decision",
        "bids/decision",
        ratio(counts.bids as f64, counts.decisions as f64),
    );
    count(
        metrics,
        "bidding.unable_frac",
        "ratio",
        ratio(counts.unable as f64, counts.bids as f64),
    );

    let apps = sum(&|o| o.apps as u64) as f64;
    let rounds: Option<u64> = first.iter().map(|o| o.rounds).sum();
    metrics.push(Metric::single(
        "sla.rounds_per_app",
        "rounds/app",
        nproc,
        rounds.map(|r| ratio(r as f64, apps)),
    ));
    count(
        metrics,
        "sla.rejected",
        "count",
        sum(&|o| o.rejected) as f64,
    );
    count(
        metrics,
        "sla.violations",
        "count",
        sum(&|o| o.violations) as f64,
    );

    count(metrics, "vmm.bursts", "count", sum(&|o| o.bursts) as f64);
    count(
        metrics,
        "vmm.suspensions",
        "count",
        sum(&|o| o.suspensions) as f64,
    );
    count(
        metrics,
        "vmm.escalations",
        "count",
        sum(&|o| o.escalations) as f64,
    );
    count(
        metrics,
        "vmm.peak_cloud",
        "VMs",
        first.iter().map(|o| o.peak_cloud).fold(0.0, f64::max),
    );
    count(
        metrics,
        "vmm.pool_vms_retained",
        "VMs",
        first.iter().map(|o| o.pool_vms).max().unwrap_or(0) as f64,
    );

    metrics.push(Metric::single(
        "trace.overhead_frac",
        "ratio",
        nproc,
        run_s_median
            .zip(median(untraced_run_s))
            .map(|(t, u)| ratio(t, u) - 1.0),
    ));
    notes.push(format!(
        "engine.run_s untraced: {:?} s over {} pass(es); traced: {:?} s over {} pass(es)",
        median(untraced_run_s),
        untraced_run_s.len(),
        run_s_median,
        traced.len()
    ));
}
