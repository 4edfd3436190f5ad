//! The drill kit: the one request source, the one tiny model and the one
//! report every serving drill shares — this crate's and `dart-net`'s test
//! suites, `dart_net::run_tcp_load` and the `loadgen` binary.
//!
//! [`generate_requests`] replays the `dart-trace` synthetic SPEC-like
//! workload patterns — the PC + address-delta streams the models are built
//! for: stream `i` replays workload `i % 8` with its own seed, and streams
//! are interleaved round-robin so every shard sees concurrent traffic.
//! [`drill_pre`] / [`drill_model`] build the untrained tiny tables the
//! drills serve. [`run_load`] drives a started [`ServeRuntime`] in process
//! under bounded back-pressure; its [`LoadReport`] is the one verdict
//! (`is_ok`) behind the `loadgen` binary's exit code, whichever way the
//! requests travelled.

use std::sync::Arc;
use std::time::Instant;

use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_trace::{spec_workloads, PreprocessConfig};

use crate::request::PrefetchRequest;
use crate::runtime::ServeRuntime;

/// Load-generator settings.
#[derive(Clone, Copy, Debug)]
pub struct LoadGenConfig {
    /// Number of concurrent client streams.
    pub streams: usize,
    /// Accesses generated per stream.
    pub accesses_per_stream: usize,
    /// Base seed; stream `i` uses `seed + i`.
    pub seed: u64,
}

/// Generate the interleaved request sequence.
///
/// The result has `streams * accesses_per_stream` requests; position
/// `k * streams + i` is stream `i`'s `k`-th access, so per-stream order is
/// the workload's access order while the global sequence mixes all streams.
pub fn generate_requests(cfg: &LoadGenConfig) -> Vec<PrefetchRequest> {
    let workloads = spec_workloads();
    let per_stream: Vec<Vec<PrefetchRequest>> = (0..cfg.streams)
        .map(|i| {
            let w = &workloads[i % workloads.len()];
            w.generate(cfg.accesses_per_stream, cfg.seed.wrapping_add(i as u64))
                .into_iter()
                .map(|rec| PrefetchRequest { stream_id: i as u64, pc: rec.pc, addr: rec.addr })
                .collect()
        })
        .collect();

    let mut out = Vec::with_capacity(cfg.streams * cfg.accesses_per_stream);
    for k in 0..cfg.accesses_per_stream {
        for stream in &per_stream {
            out.push(stream[k]);
        }
    }
    out
}

/// The serving drills' preprocessing: a 4-token window over 3 address
/// segments and 1 PC segment — every dimension small, so [`drill_model`]
/// fits in milliseconds.
pub fn drill_pre() -> PreprocessConfig {
    PreprocessConfig {
        seq_len: 4,
        addr_segments: 3,
        seg_bits: 4,
        pc_segments: 1,
        delta_range: 4,
        lookforward: 4,
    }
}

/// The serving drills' model: tables fitted to an *untrained* one-block
/// student of `pre`'s shape on seeded noise (serving behaviour does not
/// depend on predictive quality). Different `seed`s give different tables.
pub fn drill_model(pre: &PreprocessConfig, seed: u64) -> Arc<TabularModel> {
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 8,
        heads: 2,
        layers: 1,
        ffn_dim: 16,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, seed).expect("valid drill model config");
    let mut rng = InitRng::new(seed ^ 0x9E37);
    let x = Matrix::from_fn(40 * pre.seq_len, pre.input_dim(), |_, _| rng.next_f32());
    let tab_cfg = TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, ..Default::default() };
    Arc::new(tabularize(&student, &x, &tab_cfg).0)
}

/// Delivery accounting of one drill, in process ([`run_load`]) or over
/// sockets (`dart_net::run_tcp_load`). Latency and batch shape are not
/// here: read them from [`ServeRuntime::stats_snapshot`].
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub submitted: u64,
    /// Responses received (served, or failed by the runtime).
    pub responses: u64,
    /// Requests refused with a NACK — accounted, not lost (TCP only).
    pub nacks: u64,
    /// Responses that carried an error.
    pub failures: u64,
    /// Requests with no answer at all, plus answers nobody asked for.
    /// Non-zero means the exactly-one-answer contract broke.
    pub lost: u64,
    /// Up to 8 distinct reasons behind `failures` / `lost`, first seen first.
    pub failure_reasons: Vec<String>,
    /// Wall-clock seconds from the first send to the last answer.
    pub elapsed_s: f64,
}

impl LoadReport {
    /// Every request answered exactly once (a response or a NACK) and no
    /// response failed — the `loadgen` binary exits 1 when this is false.
    pub fn is_ok(&self) -> bool {
        self.lost == 0 && self.failures == 0 && self.responses + self.nacks == self.submitted
    }

    /// Remember `reason` unless it is already listed or the list is full.
    pub fn note(&mut self, reason: &str) {
        if self.failure_reasons.len() < 8 && !self.failure_reasons.iter().any(|r| r == reason) {
            self.failure_reasons.push(reason.to_string());
        }
    }

    /// One-paragraph human summary (what the `loadgen` binary prints).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} submitted, {} responses, {} nacks, {} failed, {} lost in {:.3}s ({:.0} req/s)",
            self.submitted,
            self.responses,
            self.nacks,
            self.failures,
            self.lost,
            self.elapsed_s,
            self.submitted as f64 / self.elapsed_s.max(1e-9),
        );
        for reason in &self.failure_reasons {
            s.push_str(&format!("\n  failure: {reason}"));
        }
        s
    }
}

/// Drive `runtime` with `reqs` in per-round waves (one access per stream
/// per round — the generator's natural interleave) under bounded
/// back-pressure, wait for it to go idle, then drain every response and
/// report.
pub fn run_load(runtime: &ServeRuntime, reqs: &[PrefetchRequest], streams: usize) -> LoadReport {
    let streams = streams.max(1);
    let high_watermark = (streams * 4).max(1024) as u64;
    let started = Instant::now();
    for round in reqs.chunks(streams) {
        runtime.submit_all(round.iter().copied());
        if runtime.outstanding() > high_watermark {
            runtime.wait_below(high_watermark / 2);
        }
    }
    runtime.wait_idle();
    let elapsed_s = started.elapsed().as_secs_f64();

    let responses = runtime.drain_completed();
    let submitted = reqs.len() as u64;
    let mut report = LoadReport {
        submitted,
        responses: responses.len() as u64,
        lost: submitted.abs_diff(responses.len() as u64),
        elapsed_s,
        ..LoadReport::default()
    };
    for err in responses.iter().filter_map(|r| r.error.as_deref()) {
        report.failures += 1;
        report.note(err);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_interleave() {
        let cfg = LoadGenConfig { streams: 4, accesses_per_stream: 10, seed: 1 };
        let reqs = generate_requests(&cfg);
        assert_eq!(reqs.len(), 40);
        // Round-robin: positions 0..4 are streams 0..4's first accesses.
        for i in 0..4 {
            assert_eq!(reqs[i].stream_id, i as u64);
            assert_eq!(reqs[4 + i].stream_id, i as u64);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = LoadGenConfig { streams: 3, accesses_per_stream: 20, seed: 7 };
        assert_eq!(generate_requests(&cfg), generate_requests(&cfg));
        let other = LoadGenConfig { seed: 8, ..cfg };
        assert_ne!(generate_requests(&cfg), generate_requests(&other));
    }

    #[test]
    fn streams_differ_even_on_same_workload() {
        // Streams 0 and 8 share workload kind but use different seeds.
        let cfg = LoadGenConfig { streams: 9, accesses_per_stream: 30, seed: 3 };
        let reqs = generate_requests(&cfg);
        let s0: Vec<u64> = reqs.iter().filter(|r| r.stream_id == 0).map(|r| r.addr).collect();
        let s8: Vec<u64> = reqs.iter().filter(|r| r.stream_id == 8).map(|r| r.addr).collect();
        assert_ne!(s0, s8);
    }
}
