//! Drives the `scenario` binary's failure paths: a missing, truncated,
//! corrupt, invariant-breaking or workload-mismatched checkpoint handed
//! to `--resume`, or an output path that cannot be written, must
//! produce a clear diagnostic and exit code 2 — never a panic backtrace.

use meryn_scenario::spec::WorkloadSpec;
use std::path::PathBuf;
use std::process::Command;

fn scenario_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
}

/// A minimal spec file for the failure-path invocations (the resume
/// paths bail before the workload ever runs). One file per test —
/// the harness runs tests concurrently.
fn spec_path(stem: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("meryn-scenario-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{stem}.json"));
    let (_, scenario) = meryn_scenario::catalog::shipped()
        .into_iter()
        .next()
        .expect("catalog is non-empty");
    scenario.save(&path).expect("write spec");
    path
}

#[test]
fn resume_from_missing_checkpoint_exits_2_with_diagnostic() {
    let out = scenario_bin()
        .arg(spec_path("missing"))
        .args(["--resume", "/nonexistent/meryn-no-such-checkpoint.json"])
        .output()
        .expect("spawn scenario bin");
    assert_eq!(out.status.code(), Some(2), "missing checkpoint → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn resume_from_garbage_checkpoint_exits_2_with_diagnostic() {
    let spec = spec_path("garbage");
    let garbage = spec.with_file_name("garbage-checkpoint.json");
    std::fs::write(&garbage, "{\"this is\": \"not a checkpoint\"").expect("write garbage");
    let out = scenario_bin()
        .arg(spec)
        .arg("--resume")
        .arg(&garbage)
        .output()
        .expect("spawn scenario bin");
    assert_eq!(out.status.code(), Some(2), "corrupt checkpoint → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a valid engine checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn checkpoint_to_unwritable_path_exits_2_with_diagnostic() {
    let out = scenario_bin()
        .arg(spec_path("unwritable"))
        .args([
            "--checkpoint",
            "/nonexistent-dir/cp.json",
            "--checkpoint-at",
            "1",
        ])
        .output()
        .expect("spawn scenario bin");
    assert_eq!(out.status.code(), Some(2), "unwritable checkpoint → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
}

/// Runs the bin with `args` after the spec and asserts it fails closed:
/// exit 2, a diagnostic containing `needle` and the unwritable path,
/// and no panic text.
fn assert_unwritable_output_exits_2(stem: &str, args: &[&str], path: &str, needle: &str) {
    let out = scenario_bin()
        .arg(spec_path(stem))
        .args(args)
        .output()
        .expect("spawn scenario bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unwritable {path} → exit 2: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "diagnostic names the failure: {stderr}"
    );
    assert!(stderr.contains(path), "diagnostic names the path: {stderr}");
    assert!(!stderr.contains("panicked"), "no panic text: {stderr}");
}

#[test]
fn report_json_into_missing_dir_exits_2_with_diagnostic() {
    let path = "/nonexistent-dir/report.json";
    assert_unwritable_output_exits_2(
        "report-json",
        &["--quiet", "--json", path],
        path,
        "cannot write scenario report JSON",
    );
}

#[test]
fn bench_json_into_missing_dir_exits_2_with_diagnostic() {
    let path = "/nonexistent-dir/bench.json";
    assert_unwritable_output_exits_2(
        "bench-json",
        &["--quiet", "--bench", "--json", path],
        path,
        "cannot write bench JSON",
    );
}

#[test]
fn single_run_json_into_missing_dir_exits_2_with_diagnostic() {
    let path = "/nonexistent-dir/single.json";
    assert_unwritable_output_exits_2(
        "single-json",
        &["--quiet", "--single", "--json", path],
        path,
        "cannot write run report JSON",
    );
}

#[test]
fn emit_shipped_into_missing_dir_exits_2_with_diagnostic() {
    let out = scenario_bin()
        .args(["--emit-shipped", "/nonexistent-dir"])
        .output()
        .expect("spawn scenario bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unwritable spec dir → exit 2: {stderr}"
    );
    assert!(
        stderr.contains("cannot write shipped spec /nonexistent-dir/"),
        "diagnostic names the failure and path: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic text: {stderr}");
}

/// A checkpoint that parses but stores a terminated VM in the pool's
/// live table — what a checkpoint from a build that kept every VM ever
/// created looks like — must fail the restore audit with exit 2, not
/// resume with a miscounted capacity.
#[test]
fn resume_from_checkpoint_with_terminated_vm_exits_2_with_diagnostic() {
    let spec = spec_path("terminated-vm");
    let cp = spec.with_file_name("terminated-vm-checkpoint.json");
    let out = scenario_bin()
        .arg(&spec)
        .arg("--checkpoint")
        .arg(&cp)
        .args(["--checkpoint-at", "600", "--quiet"])
        .output()
        .expect("spawn scenario bin");
    assert_eq!(out.status.code(), Some(0), "fresh checkpoint is written");
    let json = std::fs::read_to_string(&cp).expect("read checkpoint");
    let fabric = json.find("\"fabric\":").expect("checkpoint has a fabric");
    let pool = fabric + json[fabric..].find("\"pool\":").expect("fabric has a pool");
    let vms = pool + json[pool..].find("\"vms\":{").expect("pool has a VM table") + 7;
    let dead = "\"999999\":{\"id\":999999,\"spec\":{\"cpus\":2,\"memory_mb\":3840},\
                \"image\":0,\"location\":\"Private\",\"node\":0,\"speed\":1.0,\
                \"state\":{\"Terminated\":{\"at\":0}}},";
    assert!(
        !json[vms..].starts_with('}'),
        "the pool holds live VMs at t=600"
    );
    std::fs::write(&cp, format!("{}{dead}{}", &json[..vms], &json[vms..])).expect("inject");
    let out = scenario_bin()
        .arg(spec)
        .arg("--resume")
        .arg(&cp)
        .output()
        .expect("spawn scenario bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "terminated VM → exit 2: {stderr}"
    );
    assert!(
        stderr.contains("fails the restore audit") && stderr.contains("terminated VM"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

/// A streaming checkpoint (taken from a `Generated` + aggregate spec)
/// carries only its arrival cursor; resuming it against a spec whose
/// workload is not `Generated` must exit 2 naming the mismatch, not
/// panic in the runner.
#[test]
fn resume_streaming_checkpoint_against_non_generated_spec_exits_2() {
    let paper_spec = spec_path("mismatch-paper");
    let streaming = paper_spec.with_file_name("mismatch-streaming.json");
    let mut scenario = meryn_scenario::catalog::hyperscale_ci();
    match &mut scenario.workload {
        WorkloadSpec::Generated { config, .. } => config.count = 300,
        other => panic!("hyperscale-ci is Generated, got {other:?}"),
    }
    assert!(
        scenario.outputs.aggregate,
        "aggregate mode streams arrivals"
    );
    scenario.save(&streaming).expect("write spec");
    let cp = paper_spec.with_file_name("mismatch-checkpoint.json");
    let out = scenario_bin()
        .arg(&streaming)
        .arg("--checkpoint")
        .arg(&cp)
        .args(["--checkpoint-at", "1000", "--quiet"])
        .output()
        .expect("spawn scenario bin");
    assert_eq!(
        out.status.code(),
        Some(0),
        "streaming checkpoint is written"
    );
    let out = scenario_bin()
        .arg(&paper_spec)
        .arg("--resume")
        .arg(&cp)
        .output()
        .expect("spawn scenario bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "workload-mismatched resume → exit 2: {stderr}"
    );
    assert!(
        stderr.contains("streams its arrivals from a Generated workload"),
        "diagnostic names the mismatch: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}
