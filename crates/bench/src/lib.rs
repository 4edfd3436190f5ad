//! # dart-bench — the paper's experiments and the serving drill
//!
//! Two binaries, each the one instrument for its job (performance is
//! measured by the separate `perf/` package, not here):
//!
//! * `exp <name>... | all | list` regenerates the tables and figures of the
//!   paper's evaluation (§VII) — see [`exp`]. Each experiment prints its
//!   table in the paper's row/series format next to the paper's reported
//!   values and writes a machine-readable record under
//!   `target/experiments/`; `exp list` is the per-experiment index.
//! * `loadgen [--streams N] [--accesses N] [--shards N] [--swap-at N]
//!   [--tcp ADDR [--conns N]]` drives the serving runtime with the drill
//!   kit (`dart_serve::loadgen`), in process or over TCP, and exits 1 on
//!   any lost or failed response (2 on bad usage).
//!
//! `DART_SCALE` selects `quick` (default — minutes, reduced model/trace
//! sizes) or `full` (paper-faithful sizes; expect an hour-plus on a
//! laptop); `DART_WORKLOADS=1..8` limits how many of the eight workloads
//! the experiments that train networks cover. Malformed values of either
//! exit 2.

pub mod context;
pub mod env;
pub mod exp;
pub mod prefetch_eval;
pub mod report;
pub mod zoo;

pub use context::{ExperimentContext, Scale};
pub use env::announce_threads;
pub use report::{print_table, record_json, Table};
