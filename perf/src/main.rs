//! `dart-perf`: the repository's benchmark.
//!
//! * `dart-perf --workload W --seed N --seconds S --trace 0|1` — one
//!   workload in this process; the last line of standard output is the
//!   result object (end-to-end metrics untraced, per-layer metrics traced).
//! * `dart-perf run [--seed N] [--seconds S] [--out FILE]` — every
//!   workload untraced, each in a fresh child process.
//! * `dart-perf trace [--seed N] [--seconds S] [--out FILE]` — every
//!   workload traced.
//! * `dart-perf compare A.json B.json` — apply the bounds.
//! * `dart-perf schema` — print `BENCHMARK.json`.

mod compare;
mod descriptor;
mod inputs;
mod metrics;
mod probes;
mod report;
mod schedule;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use descriptor::Descriptor;
use report::{Outcome, RunArgs};

fn usage() -> ExitCode {
    eprintln!(
        "usage: dart-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--detail FILE]\n\
         \x20      dart-perf run|trace [--seed N] [--seconds S] [--out FILE]\n\
         \x20      dart-perf compare A.json B.json\n\
         \x20      dart-perf schema"
    );
    ExitCode::from(2)
}

/// `--key value` pairs after an optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key.strip_prefix("--")?;
            out.push((key.to_string(), it.next()?.clone()));
        }
        Some(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Option<T> {
        match self.get(key) {
            Some(raw) => raw.parse().ok(),
            None => Some(default),
        }
    }
}

/// One workload, in this process, per the driver's contract.
fn run_workload(flags: &Flags) -> ExitCode {
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flags.get("workload"),
        flags.parsed::<u64>("seed", 1),
        flags.parsed::<f64>("seconds", metrics::RUN_SECONDS as f64),
        flags.parsed::<u8>("trace", 0),
    ) else {
        return usage();
    };
    let valid = metrics::is_workload(workload) && seconds > 0.0 && seconds <= 60.0 && trace <= 1;
    if !valid {
        return usage();
    }
    let args = RunArgs {
        workload: workload.to_string(),
        seed,
        seconds,
        trace: trace == 1,
        detail: flags.get("detail").map(PathBuf::from),
    };
    let descriptor = Descriptor::detect();
    println!(
        "dart-perf {} seed {} seconds {} trace {} | {} x{} simd {} {} {} poller {} commit {}",
        args.workload,
        args.seed,
        args.seconds,
        trace,
        descriptor.cpu_model,
        descriptor.nproc,
        descriptor.simd_level,
        descriptor.profile,
        descriptor.rustc,
        descriptor.poller,
        descriptor.git_commit
    );

    let pool = rayon::ThreadPool::new(workloads::pool_threads(&args.workload));
    let mut out: Outcome = pool.install(|| workloads::run(&args));
    drop(pool);
    if !args.trace {
        out.set("peak_rss_mb", report::peak_rss_mb());
    } else {
        let share = if out.attempted == 0 { 0.0 } else { out.failed as f64 / out.attempted as f64 };
        out.set("perf.failed_share", share);
    }

    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, trace);
    if let Some(log) = out.spans.take() {
        let path = report::out_dir().join(format!("trace-{}.json", args.workload));
        report::write_json(&path, &log.to_json(50_000));
        println!("  {} spans recorded, written to {}", log.len(), path.display());
    }
    let detail_path =
        args.detail.clone().unwrap_or_else(|| report::out_dir().join(format!("{tag}.json")));
    report::write_json(&detail_path, &report::detail_json(&args, &descriptor, &out));
    report::print_metrics(&args, &out);
    println!("  detail: {}", detail_path.display());
    println!("{}", report::contract_line(&args, &out));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("schema") => {
            let text = serde_json::to_string_pretty(metrics::benchmark_json()).expect("serializes");
            println!("{text}");
            ExitCode::SUCCESS
        }
        Some(kind @ ("run" | "trace")) => {
            let Some(flags) = Flags::parse(&argv[1..]) else { return usage() };
            let (Some(seed), Some(seconds)) = (
                flags.parsed::<u64>("seed", 1),
                flags.parsed::<f64>("seconds", metrics::RUN_SECONDS as f64),
            ) else {
                return usage();
            };
            suite::run(seed, seconds, kind == "trace", flags.get("out").map(PathBuf::from))
        }
        Some("compare") if argv.len() == 3 => {
            compare::run(std::path::Path::new(&argv[1]), std::path::Path::new(&argv[2]))
        }
        Some(flag) if flag.starts_with("--") => match Flags::parse(&argv) {
            Some(flags) => run_workload(&flags),
            None => usage(),
        },
        _ => usage(),
    }
}
