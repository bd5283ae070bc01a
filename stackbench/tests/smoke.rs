//! Smoke runs of every workload through the real binary, at `--scale
//! smoke` (a tenth of the points and bubbles, 40 batches): every output
//! check passes, nothing fails, the same seed gives the same output
//! digest run after run — traced or not — and the result line carries
//! exactly the metrics `BENCHMARK.json` declares.

use stackbench::json::{self, Json};
use stackbench::layers::PER_LAYER;
use stackbench::workload::END_TO_END;
use std::path::PathBuf;
use std::process::{Command, Output};

const SEED: &str = "7";

fn stackbench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stackbench"));
    cmd.args(args);
    // The binary refuses ambient `IDB_*` configuration; a calling shell's
    // settings must not leak into the test.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("IDB_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// A fresh output directory per run, so parallel tests never share one.
fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stackbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Run {
    report: Json,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }

    fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .result
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    fn digest(&self) -> &str {
        self.report
            .get("output_digest")
            .and_then(Json::as_str)
            .expect("digest")
    }
}

fn smoke(workload: &str, seed: &str, trace: bool, tag: &str) -> Run {
    let out = out_dir(tag);
    let output: Output = stackbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--scale",
        "smoke",
        "--trace",
        if trace { "1" } else { "0" },
        "--out",
        out.to_str().expect("utf-8 path"),
    ])
    .output()
    .expect("run stackbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} exited {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected report + result, got {stdout}"
    );
    let report = json::parse(lines[lines.len() - 2]).expect("report line is JSON");
    let result = json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} checks: {:?}",
        report.get("checks")
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    // Scratch space is cleaned up; only trace output may remain.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("out dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "traces")
        .collect();
    assert!(leftovers.is_empty(), "{workload} left {leftovers:?}");
    Run { report, result }
}

fn sorted(names: impl Iterator<Item = &'static str>) -> Vec<String> {
    let mut v: Vec<String> = names.map(String::from).collect();
    v.sort();
    v
}

fn check_workload(workload: &str) {
    let a = smoke(workload, SEED, false, &format!("{workload}-a"));
    let b = smoke(workload, SEED, false, &format!("{workload}-b"));
    assert_eq!(
        a.digest(),
        b.digest(),
        "{workload}: same seed, same outputs"
    );
    assert_eq!(a.metric_names(), sorted(END_TO_END.iter().map(|m| m.name)));
    for m in &END_TO_END {
        let v = a.metric(m.name);
        assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
    }
    assert_eq!(a.metric("acked_frac"), 1.0);

    let traced = smoke(workload, SEED, true, &format!("{workload}-traced"));
    assert_eq!(
        traced.digest(),
        a.digest(),
        "{workload}: tracing must not change outputs"
    );
    assert_eq!(
        traced
            .report
            .get("checks")
            .and_then(|c| c.get("replay_identical")),
        Some(&Json::Bool(true))
    );
    assert_eq!(
        traced.metric_names(),
        sorted(PER_LAYER.iter().map(|m| m.name))
    );
    let trace_file = traced
        .report
        .get("trace_file")
        .and_then(Json::as_str)
        .expect("trace file");
    let spans = json::parse(&std::fs::read_to_string(trace_file).expect("trace written"))
        .expect("trace is JSON");
    assert!(spans
        .get("spans")
        .and_then(Json::as_array)
        .is_some_and(|s| !s.is_empty()));
}

#[test]
fn ingest_d10_smoke() {
    check_workload("ingest_d10");
}

#[test]
fn monitor_d2_smoke() {
    check_workload("monitor_d2");
}

#[test]
fn many_bubbles_smoke() {
    check_workload("many_bubbles");
}

#[test]
fn fsync_tiered_smoke() {
    check_workload("fsync_tiered");
    let other = smoke("fsync_tiered", "8", false, "fsync_tiered-seed8");
    let again = smoke("fsync_tiered", SEED, false, "fsync_tiered-c");
    assert_ne!(other.digest(), again.digest(), "the seed drives the inputs");
}

#[test]
fn refuses_ambient_configuration() {
    let out = out_dir("refuse");
    let output = stackbench(&["--workload", "monitor_d2", "--scale", "smoke", "--out"])
        .arg(&out)
        .env("IDB_SHARDS", "2")
        .output()
        .expect("run stackbench");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result without a run");
    assert!(String::from_utf8_lossy(&output.stderr).contains("IDB_SHARDS"));
}
