//! `compare A.json B.json`: one row per (metric, workload) with both
//! values, the change in the worse direction, the bound and a verdict.

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::descriptor::Descriptor;
use crate::metrics::{self, Better};
use crate::stats::{noise, summarize};
use crate::suite::{read_json, reps_of};

/// Verdict on one end-to-end (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// A run's own repetitions disagree by more than the bound, so the
    /// pair cannot tell a change of that size from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Apply a bound to one pair, given each side's repetition noise.
pub fn judge(worsening: f64, noise_a: f64, noise_b: f64, bound: f64) -> Verdict {
    if noise_a.max(noise_b) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn descriptor_of(file: &Value) -> Option<Descriptor> {
    serde_json::from_value(file.get("descriptor")?).ok()
}

/// Compare two files written by `run` or `trace`. Exit code 0 when every
/// end-to-end pair is `ok`, 1 otherwise, 2 when the files cannot be compared.
pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = (read_json(a_path), read_json(b_path));
    let (Some(da), Some(db)) = (descriptor_of(&a), descriptor_of(&b)) else {
        eprintln!("dart-perf compare: a file has no machine + build descriptor");
        return ExitCode::from(2);
    };
    if !da.comparable(&db) {
        eprintln!(
            "dart-perf compare: refusing to compare results from different machines or builds"
        );
        eprintln!("  A: {da:?}\n  B: {db:?}");
        return ExitCode::from(2);
    }
    let kind = |f: &Value| f.get("kind").and_then(Value::as_str).map(str::to_string);
    if kind(&a) != kind(&b) || a.get("seconds") != b.get("seconds") {
        eprintln!("dart-perf compare: the files are not the same kind of run (run/trace, seconds)");
        return ExitCode::from(2);
    }
    println!("A: {} (commit {})", a_path.display(), da.git_commit);
    println!("B: {} (commit {})", b_path.display(), db.git_commit);
    println!(
        "{:<13} {:<38} {:>13} {:>13} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "noiseA%", "noiseB%", "bound%"
    );
    let empty = Vec::new();
    let workloads = a.get("workloads").and_then(Value::as_object).unwrap_or(&empty);
    let mut all_ok = true;
    for (workload, detail_a) in workloads {
        let Some(detail_b) = b.get("workloads").and_then(|w| w.get(workload.as_str())) else {
            println!("{workload:<13} missing from B");
            all_ok = false;
            continue;
        };
        let metrics_a = detail_a.get("metrics").and_then(Value::as_object).unwrap_or(&empty);
        for (name, ma) in metrics_a {
            let (Some(def), Some(mb)) =
                (metrics::find(name), detail_b.get("metrics").and_then(|m| m.get(name.as_str())))
            else {
                continue;
            };
            let value = |m: &Value| m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let (va, vb) = (value(ma), value(mb));
            if va == 0.0 && vb == 0.0 {
                continue; // a layer this workload bypasses
            }
            let higher = def.better == Better::Higher;
            let (na, nb) = (noise(&reps_of(ma), higher), noise(&reps_of(mb), higher));
            let worse = worsening(va, vb, def.better);
            let (bound, verdict) = match def.bound {
                Some(bound) => {
                    let v = judge(worse, na, nb, bound);
                    all_ok &= v == Verdict::Ok;
                    (format!("{:.1}", bound * 100.0), format!("{v:?}").to_lowercase())
                }
                None => ("-".to_string(), "info".to_string()),
            };
            println!(
                "{workload:<13} {name:<38} {va:>13.4} {vb:>13.4} {:>8.2} {:>7.2} {:>7.2} {bound:>6}  {verdict}",
                worse * 100.0,
                na * 100.0,
                nb * 100.0
            );
            let (ra, rb) = (reps_of(ma), reps_of(mb));
            if def.bound.is_some() && !ra.is_empty() && !rb.is_empty() {
                let (sa, sb) = (summarize(&ra), summarize(&rb));
                println!(
                    "{:<13} {:<38} {:>13.4} {:>13.4}   (median of {} / {} repetitions; quartiles A {:.4}..{:.4}, B {:.4}..{:.4})",
                    "", "", sa.median, sb.median, ra.len(), rb.len(), sa.q1, sa.q3, sb.q1, sb.q3
                );
            }
        }
    }
    println!("every end-to-end pair ok: {all_ok}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.05, 0.01, 0.02, 0.10), Verdict::Ok);
        assert_eq!(judge(-0.30, 0.01, 0.02, 0.10), Verdict::Ok);
        assert_eq!(judge(0.11, 0.01, 0.02, 0.10), Verdict::Worse);
        // A side too noisy to resolve a 10 % change: never "ok", never "worse".
        assert_eq!(judge(0.00, 0.15, 0.02, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.50, 0.01, 0.12, 0.10), Verdict::Unresolved);
    }
}
