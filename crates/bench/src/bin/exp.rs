//! `exp` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p dart-bench --bin exp -- list
//! cargo run --release -p dart-bench --bin exp -- table5 fig10
//! DART_WORKLOADS=2 cargo run --release -p dart-bench --bin exp -- fig12 fig13 fig14 headline
//! ```
//!
//! Experiments named in one invocation share one session, so the three
//! prefetching figures and the headline summary above cost one matrix
//! evaluation. An unknown name prints the index and exits 2.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dart_bench::exp::run_cli(&args));
}
