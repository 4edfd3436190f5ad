//! The six workloads. Sizing is fixed (recorded, not adapted to the
//! host): one process, a pinned kernel pool, 2 shards, 1 IO thread, at
//! most 2 generator threads and 2 connections.

use crate::report::{Outcome, RunArgs};

pub mod paper_loop;
pub mod predict;
pub mod serve_inproc;
pub mod tcp;

/// Timed repetitions per run. Each yields its own statistic (rate,
/// median latency) and the best repetition is reported; twenty short
/// ones give interference bursts of a few seconds room to miss some.
pub const REPS: usize = 20;

/// Kernel-pool threads a workload runs under: one for the single-thread
/// latency workloads, two (this host's core count) wherever training,
/// tabularization or a service set-up runs; shard workers always get
/// `ServeConfig::pool_threads: Some(1)`.
pub fn pool_threads(workload: &str) -> usize {
    if workload.starts_with("predict_") {
        1
    } else {
        2
    }
}

/// Run one workload by name.
pub fn run(args: &RunArgs) -> Outcome {
    match args.workload.as_str() {
        "paper_loop" => paper_loop::run(args),
        "predict_b1" => predict::run(args, 1),
        "predict_b64" => predict::run(args, 64),
        "serve_inproc" => serve_inproc::run(args),
        "tcp_closed" => tcp::run_closed(args),
        "tcp_open" => tcp::run_open(args),
        other => panic!("workload {other} is not implemented"),
    }
}
