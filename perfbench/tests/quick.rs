//! Quick mode runs every workload in seconds. Each mode must print every
//! metric `BENCHMARK.json` declares for it, by name and with its unit,
//! and end with a correct result line.

use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 2] = ["paper_small", "traffic"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one quick mode; returns its `metric` lines and its result object.
fn run(workload: &str, mode: &str, extra: &[&str]) -> (Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--mode", mode, "--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}/{mode} failed:\n{stdout}");
    let last = stdout.lines().last().expect("result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload}/{mode}: {last}"
    );
    assert_eq!(
        result["failed"].as_u64(),
        Some(0),
        "{workload}/{mode}: {last}"
    );
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
    let lines = stdout
        .lines()
        .filter(|l| l.starts_with("metric "))
        .map(str::to_string)
        .collect();
    (lines, result)
}

/// Every declared metric appears in the result with its unit and as a
/// `metric <name> <value> <unit>` line, and nothing else does.
fn assert_prints(
    what: &str,
    lines: &[String],
    metrics: &[(String, Value)],
    expected: &[(String, String)],
) {
    for (name, unit) in expected {
        let got = metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let got = got.unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            got["unit"].as_str(),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        assert!(
            got["value"].as_f64().is_some_and(f64::is_finite),
            "{what}: value of {name}"
        );
        let line = lines
            .iter()
            .find(|l| l.split(' ').nth(1) == Some(name.as_str()));
        let line = line.unwrap_or_else(|| panic!("{what}: no metric line for {name}"));
        assert!(line.ends_with(&format!(" {unit}")), "{what}: {line}");
    }
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{what}: undeclared metrics printed"
    );
}

fn object(v: &Value) -> Vec<(String, Value)> {
    match v {
        Value::Object(kv) => kv.clone(),
        _ => panic!("metrics must be an object"),
    }
}

#[test]
fn e2e_mode_prints_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for w in WORKLOADS {
        let (lines, result) = run(w, "e2e", &[]);
        let metrics = object(&result["metrics"]);
        assert_prints(w, &lines, &metrics, &expected);
        let all_positive = metrics
            .iter()
            .all(|(_, v)| v["value"].as_f64().unwrap_or(0.0) > 0.0);
        assert!(all_positive, "{w}: an end-to-end metric read 0");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let expected = declared("per_layer");
    for w in WORKLOADS {
        let (mut lines, layers) = run(w, "layers", &[]);
        let (trace_lines, trace) = run(w, "trace", &["--reference-ns", "1000"]);
        lines.extend(trace_lines);
        let mut metrics = object(&layers["metrics"]);
        metrics.extend(object(&trace["metrics"]));
        assert_prints(w, &lines, &metrics, &expected);
    }
}
