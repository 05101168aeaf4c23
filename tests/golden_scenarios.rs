//! Per-scenario golden reports.
//!
//! `scenarios/goldens/<name>.json` holds the exact `--json` report
//! bytes of every checked-in spec (recorded at `RAYON_NUM_THREADS=1`;
//! reports are thread-count-independent, so the recording thread count
//! is irrelevant). Every spec must reproduce its golden **byte for
//! byte** — this is the repository-wide regression net that replaced
//! the single paper.json-only golden check, and it is what pinned the
//! engine's shard refactor to the pre-refactor monolith's behaviour.
//!
//! When a behaviour change is intentional, regenerate with:
//!
//! ```text
//! cargo build --release -p meryn-bench --bin scenario-diff
//! target/release/scenario-diff --regen
//! ```
//!
//! and put the printed per-scenario delta summary in the PR
//! description (see `scenarios/README.md` for the re-baseline policy).

use meryn_scenario::spec::WorkloadSpec;
use meryn_scenario::{run_scenario, Scenario};
use serde_json::Value;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).join(rel)
}

fn golden_for(stem: &str) -> String {
    let path = repo_path(&format!("scenarios/goldens/{stem}.json"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} — record the golden first", path.display()))
}

fn reproduce(stem: &str) {
    let spec = Scenario::load(repo_path(&format!("scenarios/{stem}.json"))).expect("spec loads");
    let report = run_scenario(&spec).expect("spec needs no extra files");
    let golden = golden_for(stem);
    assert_eq!(
        report.to_json(),
        golden,
        "{stem}: report drifted from scenarios/goldens/{stem}.json — if intentional, \
         regenerate the golden (see this file's module docs)"
    );
}

#[test]
fn every_checked_in_spec_has_a_golden() {
    for entry in std::fs::read_dir(repo_path("scenarios")).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        assert!(
            repo_path(&format!("scenarios/goldens/{stem}.json")).exists(),
            "scenarios/goldens/{stem}.json missing — every spec ships with its golden"
        );
    }
}

#[test]
fn paper_reproduces_its_golden() {
    reproduce("paper");
}

#[test]
fn high_load_reproduces_its_golden() {
    reproduce("high-load");
}

#[test]
fn cheap_cloud_reproduces_its_golden() {
    reproduce("cheap-cloud");
}

#[test]
fn no_suspension_reproduces_its_golden() {
    reproduce("no-suspension");
}

#[test]
fn deadline_aware_reproduces_its_golden() {
    reproduce("deadline-aware");
}

#[test]
fn many_vc_reproduces_its_golden() {
    reproduce("many-vc");
}

/// The fault-plane scenario: deterministic crashes, transient lease
/// rejections and an outage window — its golden pins the whole
/// recovery choreography (re-execution, capped backoff, degradation)
/// byte for byte.
#[test]
fn chaos_datacenter_reproduces_its_golden() {
    reproduce("chaos-datacenter");
}

/// Figure 5: the paper's two headline runs with their used-VM series.
#[test]
fn fig5_reproduces_its_golden() {
    reproduce("fig5");
}

// The eight ablations: each pins every number its report prints.

#[test]
fn ablation_penalty_reproduces_its_golden() {
    reproduce("ablation-penalty");
}

#[test]
fn ablation_price_ratio_reproduces_its_golden() {
    reproduce("ablation-price-ratio");
}

#[test]
fn ablation_suspension_reproduces_its_golden() {
    reproduce("ablation-suspension");
}

#[test]
fn ablation_load_reproduces_its_golden() {
    reproduce("ablation-load");
}

#[test]
fn ablation_mapreduce_reproduces_its_golden() {
    reproduce("ablation-mapreduce");
}

#[test]
fn ablation_partitioning_reproduces_its_golden() {
    reproduce("ablation-partitioning");
}

#[test]
fn ablation_escalation_reproduces_its_golden() {
    reproduce("ablation-escalation");
}

#[test]
fn ablation_clientmanagers_reproduces_its_golden() {
    reproduce("ablation-clientmanagers");
}

/// ~100k submissions over a simulated month: minutes of work without
/// optimizations, so the byte comparison only runs in release builds
/// (CI additionally `cmp`s the release binary's report against this
/// golden for every spec, this one included).
#[cfg(not(debug_assertions))]
#[test]
fn representative_datacenter_reproduces_its_golden() {
    reproduce("representative-datacenter");
}

/// The `scenario-diff --regen` round-trip: regenerating every golden
/// must be a byte-for-byte no-op against what is checked in. This
/// sweeps *all* specs (future ones included), so a spec added without
/// re-recording — or a golden edited by hand — fails here even before
/// its dedicated reproduce test exists. Release-only: the sweep
/// includes the month-long representative-datacenter run.
#[cfg(not(debug_assertions))]
#[test]
fn regenerating_every_golden_is_a_no_op() {
    for entry in std::fs::read_dir(repo_path("scenarios")).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        reproduce(&stem);
    }
}

/// How many submissions `spec` arrives with — every variant of a
/// shipped spec runs the same submissions, only arriving differently.
fn submission_count(spec: &Scenario) -> u64 {
    let count = match &spec.workload {
        WorkloadSpec::Paper(p) => p.vc1_apps + p.vc2_apps,
        WorkloadSpec::Generated { config, .. } => config.count,
        WorkloadSpec::Explicit { submissions } => submissions.len(),
        WorkloadSpec::TraceFile { path } => panic!("{}: trace workload {path}", spec.name),
    };
    count as u64
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no numeric {key:?}"))
}

/// Conservation laws every golden must obey, independent of what the
/// numbers are: read from the checked-in goldens alone (no simulation
/// runs), for the base-seed run of every variant of every spec.
/// - every submission is accounted for: `apps + rejected` equals the
///   spec's submission count;
/// - the per-VC groups partition the apps: Σ `groups[].apps` = `apps`;
/// - so do the placements, where recorded: Σ `placements` = `apps`;
/// - money balances: `revenue − total_cost = profit`, to 1e-6 units.
#[test]
fn goldens_obey_conservation_laws() {
    let mut checked = 0;
    for entry in std::fs::read_dir(repo_path("scenarios")).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let submitted = submission_count(&Scenario::load(&path).expect("spec loads"));
        let golden: Value = serde_json::from_str(&golden_for(&stem)).expect("golden parses");
        let variants = golden
            .get("variants")
            .and_then(Value::as_seq)
            .expect("golden lists variants");
        for variant in variants {
            let label = variant.get("label").and_then(Value::as_str).unwrap_or("?");
            let base = variant.get("base").expect("variant has a base run");
            let apps = num(base, "apps");
            assert_eq!(
                apps + num(base, "rejected"),
                submitted as f64,
                "{stem} [{label}]: apps + rejected ≠ {submitted} submissions"
            );
            let grouped: f64 = base
                .get("groups")
                .and_then(Value::as_seq)
                .expect("base run has groups")
                .iter()
                .map(|g| num(g, "apps"))
                .sum();
            assert_eq!(grouped, apps, "{stem} [{label}]: Σ groups[].apps ≠ apps");
            if let Some(placements) = variant.get("placements").and_then(Value::as_seq) {
                let placed: f64 = placements
                    .iter()
                    .map(|pair| {
                        pair.as_seq()
                            .and_then(|p| p.get(1))
                            .and_then(Value::as_f64)
                            .expect("placement is a [case, count] pair")
                    })
                    .sum();
                assert_eq!(placed, apps, "{stem} [{label}]: Σ placements ≠ apps");
            }
            let (revenue, cost, profit) = (
                num(base, "revenue_units"),
                num(base, "total_cost_units"),
                num(base, "profit_units"),
            );
            assert!(
                (revenue - cost - profit).abs() <= 1e-6,
                "{stem} [{label}]: revenue {revenue} − cost {cost} ≠ profit {profit}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no golden variant was checked");
}
