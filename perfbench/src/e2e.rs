//! The timed run (`--trace 0`): the end-to-end metrics a user of the
//! simulator sees, measured with tracing off.

use std::process::Command;
use std::time::Duration;

use meryn_core::{EngineCheckpoint, Platform};
use meryn_scenario::{single_run_resume, single_run_start, Scenario};
use meryn_sim::SimTime;

use crate::calib::{self, Gauge};
use crate::stats::{fastest, fidelity_gaps, median, Tally};
use crate::workload::{digest, guarded, paper_comparison, timed_report, Kind, Workload};
use crate::{pool, repeat_timed, Metric, Outcome};

/// Set-ups, and checkpoint round trips, are taken in bursts of at least
/// this long (and at least one) after a timed report; each burst gives
/// one sample, its fastest, so that a sub-millisecond set-up or round
/// trip is not scaled by a reading of the host fifty times longer than
/// itself on its own.
const BURST_SECS: f64 = 0.1;
/// A burst of checkpoint round trips follows a timed report whenever the
/// round trips so far took less than this share of the loop, so
/// `checkpoint_s` samples the same host window as the throughputs
/// without crowding them out.
const CHECKPOINT_SHARE: f64 = 0.2;
/// Timed reports before the deadline may end the loop: one whole ABBA
/// round, so each thread count has at least two samples.
const MIN_REPORTS: usize = 4;

/// Samples of one timing scaled to the nominal host (see `calib`), with
/// the unscaled ones. The metric is the median of the scaled samples.
#[derive(Default)]
struct Scaled {
    scaled: Vec<f64>,
    raw: Vec<f64>,
}

impl Scaled {
    /// Adds a time [s] taken while the host ran `slowness` times slower
    /// than nominal.
    fn push_secs(&mut self, secs: Option<f64>, slowness: f64) {
        if let Some(secs) = secs {
            self.raw.push(secs);
            self.scaled.push(secs / slowness);
        }
    }

    /// Adds a rate taken while the host ran `slowness` times slower than
    /// nominal.
    fn push_rate(&mut self, rate: f64, slowness: f64) {
        self.raw.push(rate);
        self.scaled.push(rate * slowness);
    }

    fn len(&self) -> usize {
        self.scaled.len()
    }

    fn metric(&self, name: &'static str, unit: &'static str, threads: usize) -> Metric {
        Metric::timed(name, unit, threads, &self.scaled, median(&self.scaled)).with_raw(&self.raw)
    }
}

/// Runs every end-to-end measurement of `w` at `seed` for about
/// `seconds` of timed reports.
pub fn run(w: &Workload, seed: Option<u64>, seconds: f64, nproc: usize) -> Result<Outcome, String> {
    let err = |e: std::io::Error| format!("{}: {e}", w.name);
    let at_nproc = pool(nproc);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();

    let scenario = w.scenario(seed).map_err(err)?;
    let golden = w.golden_for(&scenario).map_err(err)?;
    let subs = crate::workload::submissions_per_report(&scenario).map_err(err)? as f64;
    // The paused run whose checkpoint is round-tripped inside the loop.
    let paused = at_nproc.install(|| Paused::start(&scenario, w.checkpoint_at_secs));
    if let Err(e) = &paused {
        eprintln!("{}: cannot pause the checkpointed run: {e}", w.name);
    }

    // setup_s: Scenario::load up to the base-seed run's first event.
    let setup_sample = || -> std::io::Result<f64> {
        let t0 = crate::now();
        let scenario = w.scenario(seed)?;
        let platform = single_run_start(&scenario)?;
        let secs = t0.elapsed().as_secs_f64();
        drop(platform);
        Ok(secs)
    };

    // Whole reports at both thread counts in ABBA order (nproc, 1, 1,
    // nproc, ...), so slow drift of the host weighs on both alike; set-up
    // bursts and checkpoint round trips are interleaved with them for
    // the same reason. Each is timed between two readings of the host's
    // speed and scaled to the nominal host; every report is checked.
    let mut gauge = Gauge::new();
    let start = crate::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut round_trip_wall = 0.0;
    let mut rates: [Scaled; 2] = Default::default();
    let mut setup = Scaled::default();
    let mut round_trips = Scaled::default();
    let mut reference: Option<String> = None;
    for rep in 0.. {
        if rep >= MIN_REPORTS && crate::now() >= deadline {
            break;
        }
        let slot = [0, 1, 1, 0][rep % 4];
        let threads = [nproc, 1][slot];
        let (report, slowness) = gauge.around(|| pool(threads).install(|| timed_report(&scenario)));
        let ok = match report {
            Ok(report) => {
                let matches_golden = golden.as_ref().is_none_or(|g| *g == report.json);
                let reference = reference.get_or_insert_with(|| report.json.clone());
                let ok = matches_golden && *reference == report.json;
                if ok {
                    rates[slot].push_rate(subs / report.secs, slowness);
                } else {
                    eprintln!(
                        "{}: report at {threads} thread(s) differs from {}",
                        w.name,
                        if matches_golden {
                            "the first report"
                        } else {
                            w.golden
                        }
                    );
                }
                ok
            }
            Err(e) => {
                eprintln!("{}: report at {threads} thread(s) failed: {e}", w.name);
                false
            }
        };
        tally.record(ok);
        let (samples, slowness) =
            gauge.around(|| at_nproc.install(|| repeat_timed(1, BURST_SECS, setup_sample)));
        setup.push_secs(fastest(&samples.map_err(err)?), slowness);
        if round_trip_wall < CHECKPOINT_SHARE * start.elapsed().as_secs_f64() {
            if let Ok(paused) = &paused {
                let t0 = crate::now();
                let (burst, slowness) = gauge.around(|| {
                    at_nproc.install(|| {
                        repeat_timed(1, BURST_SECS, || {
                            paused.round_trip().map(|rt| rt.save_secs + rt.restore_secs)
                        })
                    })
                });
                round_trip_wall += t0.elapsed().as_secs_f64();
                match burst {
                    Ok(secs) => {
                        for _ in &secs {
                            tally.record(true);
                        }
                        round_trips.push_secs(fastest(&secs), slowness);
                    }
                    Err(e) => {
                        tally.record(false);
                        eprintln!("{}: checkpoint round trip failed: {e}", w.name);
                    }
                }
            }
        }
    }
    metrics.push(setup.metric("setup_s", "s", nproc));
    metrics.push(rates[0].metric("subs_per_s", "subs/s", nproc));
    metrics.push(rates[1].metric("subs_per_s_1t", "subs/s", 1));

    // peak_rss_mib: a fresh process running the report once at nproc.
    let reference_digest = reference.as_deref().map(digest);
    let rss = rss_probe(w, seed).and_then(|(report_digest, mib)| {
        if Some(report_digest) == reference_digest {
            Ok(mib)
        } else {
            Err("the probe's report differs from the timed reports".to_owned())
        }
    });
    tally.record(rss.is_ok());
    if let Err(e) = &rss {
        eprintln!("{}: peak-RSS probe failed: {e}", w.name);
    }
    metrics.push(Metric::single("peak_rss_mib", "MiB", nproc, rss.ok()));

    // checkpoint_s, and the resume check: one more round trip, after
    // which the resumed and the paused run both finish.
    let resumed_matches = paused.and_then(|p| at_nproc.install(|| p.resume_check()));
    match &resumed_matches {
        Ok(true) => {}
        Ok(false) => eprintln!(
            "{}: the resumed run failed audit_invariants or its report differs from the uninterrupted one",
            w.name
        ),
        Err(e) => eprintln!("{}: checkpoint resume check failed: {e}", w.name),
    }
    tally.record(resumed_matches.is_ok_and(|same| same));
    let checkpoint = round_trips.metric("checkpoint_s", "s", nproc);
    metrics.push(match w.kind {
        Kind::HyperscaleCi => checkpoint,
        _ => checkpoint.not_applicable(),
    });

    // Paper fidelity: the paper spec's headline runs at its committed
    // seed, whose comparison `scenarios/goldens/paper.json` records, so
    // the gaps move only when the model does, not with `--seed`. They are
    // paper-sweep's metrics; hyperscale-ci marks them not applicable.
    let gaps = at_nproc
        .install(paper_comparison)
        .map(|c| {
            fidelity_gaps(
                c.completion_improvement_pct,
                c.cost_improvement_pct,
                c.cost_saved_units,
            )
        })
        .map_err(|e| eprintln!("{}: paper comparison failed: {e}", w.name))
        .ok();
    let gap_names = [
        ("completion_gain_gap_pp", "pp"),
        ("cost_gain_gap_pp", "pp"),
        ("cost_saved_gap_pct", "%"),
    ];
    for (i, (name, unit)) in gap_names.into_iter().enumerate() {
        let gap = Metric::single(name, unit, nproc, gaps.map(|g| g[i]));
        metrics.push(match w.kind {
            Kind::PaperSweep => gap,
            _ => gap.not_applicable(),
        });
    }

    let notes = vec![
        format!(
            "every timing is scaled to the nominal host: divided by (rates: multiplied by) the mean of the \
             reference workload's readings before and after it over {} s; the value is the median of the scaled \
             samples (setup_s and checkpoint_s: of each burst's fastest), the record keeps the scaled and the raw \
             samples' median, tail and count in the metric's unit",
            calib::NOMINAL_SECS
        ),
        format!(
            "reference workload: {} reading(s), median {:.6} s",
            gauge.readings().len(),
            median(gauge.readings()).unwrap_or(f64::NAN)
        ),
        format!(
            "submissions per report: {subs} ({} report(s) at {nproc} thread(s), {} at 1, {} checkpoint burst(s))",
            rates[0].len(),
            rates[1].len(),
            round_trips.len()
        ),
        format!(
            "golden check: {}",
            if golden.is_some() {
                format!("every report compared with {}", w.golden)
            } else {
                "not applicable (the workload is not at the spec's committed seed and size)".into()
            }
        ),
        match w.kind {
            Kind::HyperscaleCi => "checkpoint_s: this workload's, at CI's mid-run instant".into(),
            _ => format!(
                "checkpoint_s: not applicable (hyperscale-ci's metric); measured here at {} s of the base run",
                w.checkpoint_at_secs
            ),
        },
        match w.kind {
            Kind::PaperSweep => format!(
                "fidelity gaps: from {}'s headline runs at its committed seed, outside every timing",
                crate::workload::PAPER_SPEC
            ),
            _ => format!(
                "fidelity gaps: not applicable (paper-sweep's metrics); the values are {}'s headline runs \
                 at its committed seed, outside every timing",
                crate::workload::PAPER_SPEC
            ),
        },
        "fidelity gaps repeat exactly: they are simulated outcomes at a fixed seed, not timings".into(),
    ];
    Ok(Outcome {
        metrics,
        tally,
        seed: w.seed_of(&scenario),
        notes,
    })
}

/// One checkpoint round trip of a [`Paused`] run.
pub struct RoundTrip {
    /// `Platform::checkpoint` + `serde_json::to_string` [s].
    pub save_secs: f64,
    /// `serde_json::from_str` + `single_run_resume` [s].
    pub restore_secs: f64,
    /// Serialized checkpoint size [bytes].
    pub bytes: usize,
    /// The resumed platform.
    pub resumed: Platform,
}

/// The scenario's base-seed run, stopped at a mid-run instant, whose
/// checkpoint is round-tripped.
pub struct Paused<'a> {
    scenario: &'a Scenario,
    original: Platform,
}

impl<'a> Paused<'a> {
    /// Starts the base-seed run and stops it at `at_secs`.
    pub fn start(scenario: &'a Scenario, at_secs: u64) -> Result<Self, String> {
        guarded(|| {
            let mut original = single_run_start(scenario).map_err(|e| e.to_string())?;
            if !original.run_until(SimTime::from_secs(at_secs)) {
                return Err(format!("the run drained before {at_secs} s"));
            }
            Ok(Paused { scenario, original })
        })
    }

    /// Checkpoints the paused run, serializes, parses and resumes it.
    pub fn round_trip(&self) -> Result<RoundTrip, String> {
        guarded(|| {
            let t0 = crate::now();
            let json =
                serde_json::to_string(&self.original.checkpoint()).map_err(|e| e.to_string())?;
            let t1 = crate::now();
            let cp: EngineCheckpoint = serde_json::from_str(&json).map_err(|e| e.to_string())?;
            let resumed = single_run_resume(self.scenario, cp);
            let t2 = crate::now();
            Ok(RoundTrip {
                save_secs: (t1 - t0).as_secs_f64(),
                restore_secs: (t2 - t1).as_secs_f64(),
                bytes: json.len(),
                resumed,
            })
        })
    }

    /// One more round trip; the resumed run must pass
    /// `audit_invariants` and then finish with the exact report bytes of
    /// the paused run carried on uninterrupted.
    pub fn resume_check(self) -> Result<bool, String> {
        let mut resumed = self.round_trip()?.resumed;
        let mut original = self.original;
        guarded(|| {
            let audit = resumed.audit_invariants();
            if let Err(e) = &audit {
                eprintln!("audit_invariants after restore: {e}");
            }
            resumed.run_to_completion();
            original.run_to_completion();
            let report = |p: Platform| serde_json::to_string(&p.finalize()).map(|s| digest(&s));
            let same = report(resumed).map_err(|e| e.to_string())?
                == report(original).map_err(|e| e.to_string())?;
            Ok(audit.is_ok() && same)
        })
    }
}

/// Runs `--rss-probe` in a fresh process: returns the digest of the
/// report it produced and its `VmHWM` [MiB].
fn rss_probe(w: &Workload, seed: Option<u64>) -> Result<(u64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rss-probe", "--workload", w.name, "--seconds", "0"]);
    if let Some(seed) = seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut fields = stdout.split_whitespace();
    match (fields.next(), fields.next(), fields.next()) {
        (Some("rss-probe"), Some(d), Some(bytes)) => {
            let d = u64::from_str_radix(d, 16).map_err(|e| e.to_string())?;
            let bytes: f64 = bytes
                .parse()
                .map_err(|e: std::num::ParseFloatError| e.to_string())?;
            Ok((d, bytes / (1024.0 * 1024.0)))
        }
        _ => Err(format!("unexpected probe output {stdout:?}")),
    }
}

/// The `--rss-probe` child: one report at `nproc`, then its digest and
/// the process's peak resident set.
pub fn rss_probe_child(w: &Workload, seed: Option<u64>, nproc: usize) -> Result<(), String> {
    let scenario = w.scenario(seed).map_err(|e| e.to_string())?;
    let report = pool(nproc).install(|| timed_report(&scenario))?;
    let hwm = meryn_scenario::bench::peak_rss_bytes().ok_or("VmHWM unavailable")?;
    println!("rss-probe {:x} {hwm}", digest(&report.json));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Scaled;

    #[test]
    fn scaling_divides_times_and_multiplies_rates() {
        let mut times = Scaled::default();
        times.push_secs(Some(3.0), 1.5);
        times.push_secs(None, 2.0);
        assert_eq!((times.scaled, times.raw), (vec![2.0], vec![3.0]));
        let mut rates = Scaled::default();
        rates.push_rate(100.0, 1.5);
        rates.push_rate(90.0, 0.5);
        assert_eq!(rates.scaled, vec![150.0, 45.0]);
        assert_eq!(rates.metric("r", "1/s", 1).value, Some(97.5));
    }
}
