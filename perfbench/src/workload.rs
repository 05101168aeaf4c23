//! The benchmark workloads, and the pieces of the user's path
//! (`Scenario::load` → `run_scenario` → `ScenarioReport::to_json`) that
//! both the timed and the traced runs share.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use meryn_core::config::PlatformConfig;
use meryn_core::report::ReportMode;
use meryn_core::Platform;
use meryn_scenario::runner::ComparisonReport;
use meryn_scenario::spec::{WorkloadModifier, WorkloadSpec};
use meryn_scenario::{run_scenario, Scenario};
use meryn_sim::SimRng;
use meryn_workloads::generators::{GeneratedChunks, GeneratorConfig, DEFAULT_CHUNK};
use meryn_workloads::Submission;

/// Which shipped spec a workload runs, and how it is sized and seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `hyperscale-ci.json`: 64 VCs, 200k streamed arrivals, aggregate
    /// reports, always at the spec's committed seeds.
    HyperscaleCi,
    /// `paper.json` with [`PAPER_SWEEP_REPLICAS`] replicas per variant:
    /// hundreds of 65-app runs plus the Table 1 samples.
    PaperSweep,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// The spec file, relative to the repository root.
    pub spec: &'static str,
    /// The spec's committed report, relative to the repository root.
    pub golden: &'static str,
    /// The simulated instant of the mid-run checkpoint [s]. CI checkpoints
    /// hyperscale-ci at 1,200,000 s; the 65-app paper run ends near 2,070 s.
    pub checkpoint_at_secs: u64,
}

/// Replicas per variant on paper-sweep (the committed spec has 30):
/// 2 × (1 + 400) runs of about 1 ms each, enough for a steady run.
pub const PAPER_SWEEP_REPLICAS: u64 = 400;

/// The spec the paper-fidelity gaps are computed from.
pub const PAPER_SPEC: &str = "scenarios/paper.json";

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "hyperscale-ci",
        kind: Kind::HyperscaleCi,
        spec: "scenarios/hyperscale-ci.json",
        golden: "scenarios/goldens/hyperscale-ci.json",
        checkpoint_at_secs: 1_200_000,
    },
    Workload {
        name: "paper-sweep",
        kind: Kind::PaperSweep,
        spec: PAPER_SPEC,
        golden: "scenarios/goldens/paper.json",
        checkpoint_at_secs: 1_000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Loads the spec and applies the benchmark's size and the workload
    /// seed. The paper workload is fixed by the paper, so on paper-sweep
    /// the seed is the sweep's base seed (latency draws, replica streams
    /// and Table 1 samples). hyperscale-ci ignores it and runs at the
    /// spec's committed generator and platform seeds, the configuration
    /// CI gates and `scenarios/goldens/hyperscale-ci.json` records: at most
    /// other seeds the simulator panics (`idle private slave can stop:
    /// InvalidTransition … "Starting" … "begin_stop"` in the engine's
    /// transfer path), see `perfbench/README.md`. `None` keeps the spec's
    /// committed seed.
    pub fn scenario(&self, seed: Option<u64>) -> io::Result<Scenario> {
        let mut scenario = Scenario::load(self.spec)?;
        match self.kind {
            Kind::PaperSweep => {
                scenario.sweep.replicas = PAPER_SWEEP_REPLICAS;
                if let Some(seed) = seed {
                    scenario.sweep.base_seed = seed;
                }
            }
            Kind::HyperscaleCi => {}
        }
        Ok(scenario)
    }

    /// The seed the workload runs at: paper-sweep's base seed, or
    /// hyperscale-ci's generator seed.
    pub fn seed_of(&self, scenario: &Scenario) -> u64 {
        match (self.kind, &scenario.workload) {
            (Kind::HyperscaleCi, WorkloadSpec::Generated { seed, .. }) => *seed,
            _ => scenario.sweep.base_seed,
        }
    }

    /// The committed report bytes when `scenario` is exactly the
    /// committed spec (its seed and size), else `None`.
    pub fn golden_for(&self, scenario: &Scenario) -> io::Result<Option<String>> {
        if Scenario::load(self.spec)? == *scenario {
            Ok(Some(std::fs::read_to_string(self.golden)?))
        } else {
            Ok(None)
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Submissions simulated across every run a report needs: each
/// variant's base run and replicas times the workload size. Table 1's
/// micro-scenarios (a few submissions per sample) are timed with the
/// report but not counted.
pub fn submissions_per_report(scenario: &Scenario) -> io::Result<u64> {
    let per_run = match &scenario.workload {
        WorkloadSpec::Paper(p) => (p.vc1_apps + p.vc2_apps) as u64,
        WorkloadSpec::Generated { config, .. } => config.count as u64,
        _ => return Err(invalid(format!("{}: unsized workload", scenario.name))),
    };
    let variants: u64 = scenario.sweep.axes.iter().map(|a| a.len() as u64).product();
    let runs = u64::from(scenario.outputs.needs_base_run()) + scenario.sweep.replicas;
    Ok(variants * runs * per_run)
}

/// One timed user-path report: wall seconds of `run_scenario` +
/// `to_json`, the JSON, and the Figure 6 comparison when requested.
pub struct TimedReport {
    /// Wall time [s].
    pub secs: f64,
    /// `ScenarioReport::to_json` bytes.
    pub json: String,
    /// The report's comparison section.
    pub comparison: Option<ComparisonReport>,
}

/// Runs the user's path once on the calling thread's pool. A panic or
/// `Err` comes back as `Err` with its message.
pub fn timed_report(scenario: &Scenario) -> Result<TimedReport, String> {
    guarded(|| {
        let t0 = crate::now();
        let report = run_scenario(scenario).map_err(|e| e.to_string())?;
        let json = report.to_json();
        let secs = t0.elapsed().as_secs_f64();
        Ok(TimedReport {
            secs,
            json,
            comparison: report.comparison,
        })
    })
}

/// The comparison section of `scenarios/paper.json`'s headline runs at
/// the spec's committed seed — replicas and Table 1 dropped, since the
/// comparison reads only the two base runs.
pub fn paper_comparison() -> Result<ComparisonReport, String> {
    let mut paper = Scenario::load(PAPER_SPEC).map_err(|e| e.to_string())?;
    paper.sweep.replicas = 0;
    paper.outputs.table1_samples = None;
    timed_report(&paper)?
        .comparison
        .ok_or_else(|| "paper spec requests no comparison".to_owned())
}

/// Runs `f`, turning a panic into `Err` so one failed run is counted
/// instead of aborting the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// A run's input, as `run_scenario` hands it to each job.
pub enum Input {
    /// A materialized workload, shared between the variants that use it.
    Batch(Arc<Vec<Submission>>),
    /// A generator streamed into the engine (aggregate `Generated` specs).
    Stream(GeneratorConfig, u64),
}

/// One simulation of a report: a seeded platform config and its input.
pub struct Job {
    /// The variant's config with the run's seed applied.
    pub cfg: PlatformConfig,
    /// What arrives.
    pub input: Input,
}

/// The jobs `run_scenario` simulates for `scenario`, in its order:
/// variants in axis order (via the public `SweepAxis::apply`), each with
/// its base-seed run and then its replicas. The traced run drives these
/// through the engine's public API; the base runs' results are checked
/// against `run_scenario`'s report, which catches any drift between this
/// list and the runner's. Returns the jobs and the seconds spent
/// materializing workloads.
pub fn jobs(scenario: &Scenario) -> io::Result<(Vec<Job>, f64)> {
    let mut variants = vec![(scenario.platform.clone(), WorkloadModifier::default())];
    for axis in &scenario.sweep.axes {
        variants = variants
            .iter()
            .flat_map(|(cfg, modifier)| {
                (0..axis.len()).map(move |idx| {
                    let (mut cfg, mut modifier) = (cfg.clone(), *modifier);
                    axis.apply(idx, &mut cfg, &mut modifier);
                    (cfg, modifier)
                })
            })
            .collect();
    }
    let streamed =
        scenario.outputs.aggregate && matches!(scenario.workload, WorkloadSpec::Generated { .. });
    let base_seed = scenario.sweep.base_seed;
    let mut materialized: Vec<(WorkloadModifier, Arc<Vec<Submission>>)> = Vec::new();
    let mut materialize_secs = 0.0;
    let mut jobs = Vec::new();
    for (cfg, modifier) in variants {
        let input = || -> io::Result<Input> {
            if streamed {
                let (gen, seed) = scenario
                    .workload
                    .streamable(&modifier)
                    .expect("streamed implies a Generated workload");
                return Ok(Input::Stream(gen, seed));
            }
            if let Some((_, w)) = materialized.iter().find(|(m, _)| *m == modifier) {
                return Ok(Input::Batch(Arc::clone(w)));
            }
            let t0 = crate::now();
            let w = Arc::new(scenario.workload.materialize(&modifier)?);
            materialize_secs += t0.elapsed().as_secs_f64();
            materialized.push((modifier, Arc::clone(&w)));
            Ok(Input::Batch(w))
        }()?;
        let seeds = scenario
            .outputs
            .needs_base_run()
            .then_some(base_seed)
            .into_iter()
            .chain((0..scenario.sweep.replicas).map(|i| SimRng::stream_seed(base_seed, i)));
        for seed in seeds {
            let input = match &input {
                Input::Batch(w) => Input::Batch(Arc::clone(w)),
                Input::Stream(gen, s) => Input::Stream(gen.clone(), *s),
            };
            jobs.push(Job {
                cfg: cfg.clone().with_seed(seed),
                input,
            });
        }
    }
    Ok((jobs, materialize_secs))
}

/// Deploys a job's platform the way `run_scenario` does.
pub fn deploy(scenario: &Scenario, cfg: PlatformConfig) -> Platform {
    let platform = Platform::new(cfg).with_series_recording(scenario.outputs.series);
    if scenario.outputs.aggregate {
        platform.with_report_mode(ReportMode::Aggregate)
    } else {
        platform
    }
}

/// Hands a job's input to its platform the way `run_scenario` does.
pub fn attach(platform: &mut Platform, input: &Input) -> Result<(), String> {
    match input {
        Input::Batch(workload) => platform.enqueue_workload(workload.iter()),
        Input::Stream(gen, seed) => {
            let subs = GeneratedChunks::new(gen, *seed, DEFAULT_CHUNK).submissions();
            platform
                .stream_workload(gen.count as u64, subs)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// A stable 64-bit digest of a report's bytes, for byte-identity
/// checks without keeping every report in memory.
pub fn digest(bytes: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::hash::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}
