//! `run` / `trace`: every workload, each in a fresh child process (this
//! binary re-executed per the driver's contract), so set-up time and peak
//! memory are per workload; the children's detailed results are merged
//! into one file.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

use crate::metrics::WORKLOADS;
use crate::report::{out_dir, print_metric_heading, print_metric_row, write_json};

/// Run every workload with tracing off (`trace == false`) or on, and
/// write the merged result to `out` (default `perf/out/run-<seed>.json`
/// or `perf/out/trace-<seed>.json`).
pub fn run(seed: u64, seconds: f64, trace: bool, out: Option<PathBuf>) -> ExitCode {
    let kind = if trace { "trace" } else { "run" };
    let exe = std::env::current_exe().expect("path of this binary");
    let dir = out_dir();
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for w in &WORKLOADS {
        let detail = dir.join(format!("{}-seed{seed}-trace{}.json", w.name, u8::from(trace)));
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .arg("--detail")
            .arg(&detail)
            .status()
            .expect("start a child process");
        if !status.success() {
            eprintln!("dart-perf {kind}: workload {} exited with {status}", w.name);
            return ExitCode::FAILURE;
        }
        workloads.push((w.name.to_string(), read_json(&detail)));
    }

    let mut correct =
        workloads.iter().all(|(_, d)| d.get("correct").and_then(Value::as_bool) == Some(true));
    // Both predict workloads run the same tables on the same windows.
    let checksum = |name: &str| -> Option<String> {
        let (_, detail) = workloads.iter().find(|(w, _)| w == name)?;
        Some(detail.get("notes")?.get("output_checksum")?.as_str()?.to_string())
    };
    if !trace {
        let (b1, b64) = (checksum("predict_b1"), checksum("predict_b64"));
        let equal = b1.is_some() && b1 == b64;
        println!("check predict_b1 and predict_b64 output checksums equal: {}", verdict(equal));
        correct &= equal;
    }

    println!("\n== dart-perf {kind} seed {seed}: every metric by name ==");
    print_metric_heading(&format!("{:<13} ", "workload"));
    for (name, detail) in &workloads {
        print_rows(name, detail);
    }
    let descriptor = workloads[0].1.get("descriptor").cloned().unwrap_or(Value::Null);
    let merged = json!({
        "schema": "dart-perf/1",
        "kind": kind,
        "seed": seed,
        "seconds": seconds,
        "descriptor": descriptor,
        "correct": correct,
        "workloads": Value::Object(workloads),
        "claim": null
    });
    let path = out.unwrap_or_else(|| dir.join(format!("{kind}-{seed}.json")));
    write_json(&path, &merged);
    println!("\nwritten to {}", path.display());
    println!("outputs correct: {}", verdict(correct));
    println!("\"claim\": null");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAILED (metrics are not valid)"
    }
}

/// Parse a JSON file this program wrote.
pub fn read_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The per-repetition values of a metric entry.
pub fn reps_of(metric: &Value) -> Vec<f64> {
    metric
        .get("reps")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn print_rows(workload: &str, detail: &Value) {
    let Some(metrics) = detail.get("metrics").and_then(Value::as_object) else { return };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let reps = reps_of(m);
        if value == 0.0 && reps.is_empty() {
            continue; // a layer this workload bypasses
        }
        print_metric_row(&format!("{workload:<13} "), name, value, unit, &reps);
    }
}
