//! What one workload run produces, and the two forms it is written in:
//! the contract's one-line result and the detailed file under `perf/out/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::{json, Value};

use crate::descriptor::Descriptor;
use crate::metrics::{self, Better};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{best, per_rep_quantile_us, summarize};

/// Arguments of one workload run (the contract's command line).
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// One of the six workload names.
    pub workload: String,
    /// Drives every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Where the detailed result goes (default `perf/out/<workload>-...`).
    pub detail: Option<PathBuf>,
}

/// One correctness gate.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values behind the verdict.
    pub detail: String,
}

/// Requests sent, answered and failed in one phase of a run.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase label (`warmup`, `rep0`, `r2.rep1`, ...).
    pub name: String,
    /// Operations attempted.
    pub sent: u64,
    /// Operations answered correctly.
    pub succeeded: u64,
    /// Operations failed, lost, NACKed or duplicated.
    pub failed: u64,
}

/// One metric of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reported {
    /// The reported number: the measurement itself, or the best of `reps`.
    pub value: f64,
    /// Per-repetition values behind `value` (empty when measured once).
    pub reps: Vec<f64>,
}

/// Everything a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted during the timed phases.
    pub attempted: u64,
    /// Operations that failed, were lost, NACKed or answered twice.
    pub failed: u64,
    /// Correctness gates; any failure makes the run incorrect.
    pub checks: Vec<Check>,
    /// Per-phase counts.
    pub phases: Vec<Phase>,
    /// Metric name (from the tables in `metrics`) to its value.
    pub metrics: BTreeMap<&'static str, Reported>,
    /// Free-form facts worth keeping beside the numbers.
    pub notes: Vec<(String, String)>,
    /// Spans of a traced run.
    pub spans: Option<SpanLog>,
}

impl Outcome {
    /// Record a gate.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check { name: name.to_string(), ok, detail });
    }

    /// Record a metric measured once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Reported { value, reps: Vec::new() });
    }

    /// Record a metric from its per-repetition values: the best repetition
    /// (see [`crate::stats::best`]) is reported, the rest are kept.
    pub fn set_reps(&mut self, name: &'static str, per_rep: &[f64]) {
        let def = metrics::find(name).unwrap_or_else(|| panic!("{name} is not a metric"));
        let value = best(per_rep, def.better == Better::Higher);
        self.metrics.insert(name, Reported { value, reps: per_rep.to_vec() });
    }

    /// Traced runs: latency percentiles of the untraced reference pass,
    /// each reported only where every repetition has ten samples beyond it.
    pub fn set_latencies(&mut self, mut reps_ns: Vec<Vec<u64>>) {
        let named = [("latency_p50_us", 0.50), ("latency_p95_us", 0.95), ("latency_p99_us", 0.99)];
        for (name, q) in named {
            if let Some(per_rep) = per_rep_quantile_us(&mut reps_ns, q) {
                self.set_reps(name, &per_rep);
            }
        }
    }

    /// Record a note.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one phase, adding it to the totals when `timed`.
    pub fn phase(&mut self, name: String, sent: u64, succeeded: u64, timed: bool) {
        let failed = sent - succeeded.min(sent);
        println!("  phase {name}: sent {sent} succeeded {succeeded} failed {failed}");
        if timed {
            self.attempted += sent;
            self.failed += failed;
        }
        self.phases.push(Phase { name, sent, succeeded, failed });
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// `f`'s result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// Set-up repeats: at least this many unless they are slow...
const MIN_SETUPS: usize = 3;
/// ...and never more than this many.
const MAX_SETUPS: usize = 9;
/// Repeat a cheap set-up until this much time went into it (a 0.1 s
/// set-up measured three times is noisier than a 1 s one).
const SETUP_FLOOR_S: f64 = 0.5;
/// Do not start a repeat that would take set-up past this much time.
const SETUP_CEILING_S: f64 = 4.0;

/// Run `build` several times and return the last result with every
/// duration in seconds; earlier results go to `discard` (untimed), which
/// must stop whatever threads they own. Set-up time is reported like any
/// other timing, as the least-disturbed of its repeats.
pub fn timed_setups<T>(mut build: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last: Option<T> = None;
    loop {
        if let Some(old) = last.take() {
            discard(old);
        }
        let (built, took) = timed(&mut build);
        last = Some(built);
        secs.push(took);
        let spent: f64 = secs.iter().sum();
        let enough = secs.len() >= MIN_SETUPS && spent >= SETUP_FLOOR_S;
        let next_fits = spent + secs[secs.len() - 1] <= SETUP_CEILING_S;
        if enough || !next_fits || secs.len() >= MAX_SETUPS {
            return (last.expect("a set-up just ran"), secs);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The metric table a run of this kind must fill.
pub fn required(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn metric_value(def: &MetricDef, r: &Reported) -> Value {
    json!({ "value": r.value, "unit": def.unit, "reps": r.reps.as_slice() })
}

/// The detailed result of one run.
pub fn detail_json(args: &RunArgs, descriptor: &Descriptor, out: &Outcome) -> Value {
    let metrics: Vec<(String, Value)> = required(args.trace)
        .iter()
        .map(|def| {
            let r = out.metrics.get(def.name).cloned().unwrap_or_default();
            (def.name.to_string(), metric_value(def, &r))
        })
        .collect();
    let checks: Vec<Value> = out
        .checks
        .iter()
        .map(|c| json!({ "name": c.name.as_str(), "ok": c.ok, "detail": c.detail.as_str() }))
        .collect();
    let phases: Vec<Value> = out
        .phases
        .iter()
        .map(|p| {
            json!({
                "name": p.name.as_str(),
                "sent": p.sent,
                "succeeded": p.succeeded,
                "failed": p.failed
            })
        })
        .collect();
    let notes: Vec<(String, Value)> =
        out.notes.iter().map(|(k, v)| (k.clone(), Value::String(v.clone()))).collect();
    json!({
        "schema": "dart-perf/1",
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "descriptor": descriptor,
        "correct": out.correct(),
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": checks,
        "phases": phases,
        "metrics": Value::Object(metrics),
        "notes": Value::Object(notes)
    })
}

/// The contract's result: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with exactly `value` and `unit`.
pub fn contract_line(args: &RunArgs, out: &Outcome) -> String {
    let metrics: Vec<(String, Value)> = required(args.trace)
        .iter()
        .map(|def| {
            let value = out.metrics.get(def.name).map_or(0.0, |r| r.value);
            (def.name.to_string(), json!({ "value": value, "unit": def.unit }))
        })
        .collect();
    let line = json!({
        "correct": out.correct(),
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": Value::Object(metrics)
    });
    serde_json::to_string(&line).expect("JSON values always serialize")
}

/// Heading of the rows [`print_metric_row`] prints, after `lead`.
pub fn print_metric_heading(lead: &str) {
    println!(
        "{lead}{:<40} {:>15} {:<8} {:>14} {:>14} {:>14} {:>3}",
        "metric", "value", "unit", "median", "q1", "q3", "n"
    );
}

/// One metric by name: value and unit, then the median, quartiles and
/// count of the repetitions behind the value (when there are any).
pub fn print_metric_row(lead: &str, name: &str, value: f64, unit: &str, reps: &[f64]) {
    print!("{lead}{name:<40} {value:>15.4} {unit:<8}");
    if reps.is_empty() {
        println!();
    } else {
        let s = summarize(reps);
        println!(" {:>14.4} {:>14.4} {:>14.4} {:>3}", s.median, s.q1, s.q3, reps.len());
    }
}

/// Print every metric of the run and every gate.
pub fn print_metrics(args: &RunArgs, out: &Outcome) {
    print_metric_heading("  ");
    for def in required(args.trace) {
        if let Some(r) = out.metrics.get(def.name) {
            print_metric_row("  ", def.name, r.value, def.unit, &r.reps);
        }
    }
    for c in &out.checks {
        println!("  check {:<36} {}  {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
}

/// `perf/out/`, created on demand. `cargo run` exports the manifest
/// directory; a binary started by hand falls back to the build-time path.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = Path::new(&manifest).join("out");
    std::fs::create_dir_all(&dir).expect("create perf/out");
    dir
}

/// Write pretty JSON, creating parent directories.
pub fn write_json(path: &Path, value: &Value) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    let text = serde_json::to_string_pretty(value).expect("JSON values always serialize");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
