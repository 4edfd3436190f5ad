//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! and per-layer metrics. `BENCHMARK.json` is generated from these tables
//! (`dart-perf schema`) and a test keeps the two identical.

use serde_json::{json, Value};

/// Whether a larger or a smaller value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and the one-line reason it exists.
pub struct WorkloadDef {
    /// Final name; later issues cite it verbatim.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
}

/// One named metric.
pub struct MetricDef {
    /// Final name; later issues cite it verbatim.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// Seconds one contract run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// Requests per second of the three `tcp_open` rungs — about 25 / 50 /
/// 75 % of the `tcp_closed` throughput of the committed baseline. Frozen:
/// an open loop that re-derived its rate from the system under test would
/// offer a slower system less load.
pub const OPEN_RATES_RPS: [u64; 3] = [10_000, 20_000, 30_000];

/// `tcp_open` limit on the 99th-percentile latency, microseconds: the
/// highest rung that stays under it without failures or a growing
/// backlog is `net.open.slo_rate_rps`.
pub const OPEN_SLO_P99_US: f64 = 10_000.0;

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "predict_b1",
        why: "DART (1,32,2,128,2) tables, one sample per forward_probs call on one thread: \
              the paper's per-access inference latency; only dart-pq and dart-core work",
    },
    WorkloadDef {
        name: "predict_b64",
        why: "same tables and inputs, 64 samples per predict_batch call: the tiled batch \
              kernels instead of the row path, so a win for one that costs the other shows",
    },
    WorkloadDef {
        name: "serve_inproc",
        why: "ServeRuntime (DART, 2 shards, max_batch 64), 256 streams, closed loop of 512 \
              outstanding: kernels dominate, dart-serve is the remainder, dart-net is bypassed",
    },
    WorkloadDef {
        name: "tcp_closed",
        why: "NetServer over loopback with the 30 KB DART-S tables, 2 connections x 128 \
              streams, window 64, closed loop: wire, IO thread, queues and sink dominate",
    },
    WorkloadDef {
        name: "tcp_open",
        why: "same server, open loop at a fixed 20000 req/s timed from each request's due \
              time: queueing shows as latency before throughput stops rising",
    },
    WorkloadDef {
        name: "paper_loop",
        why: "seeded 602.gcc trace through simulate, train, distill, tabularize, then \
              simulate with DART inline: the paper's loop on a stream + hop mix",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("table_bytes", "B", Lower, 0.01),
];

/// Single layers, measured from outside by the traced run. A workload
/// that bypasses a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 83] = [
    layer("pq.encode.ns_per_row.b1", "ns", Lower),
    layer("pq.encode.ns_per_row.b64", "ns", Lower),
    layer("pq.encode_share.b1", "share", Lower),
    layer("pq.aggregate.ns_per_row.b1", "ns", Lower),
    layer("pq.aggregate.ns_per_row.b64", "ns", Lower),
    layer("pq.attention.ns_per_sample.b1", "ns", Lower),
    layer("pq.attention.ns_per_sample.b64", "ns", Lower),
    layer("pq.ffn.ns_per_row.b1", "ns", Lower),
    layer("pq.ffn.ns_per_row.b64", "ns", Lower),
    layer("pq.sigmoid.ns_per_sample", "ns", Lower),
    layer("pq.gather_bytes_per_sample", "B", Lower),
    layer("core.layernorm.ns_per_row.b1", "ns", Lower),
    layer("core.layernorm.ns_per_row.b64", "ns", Lower),
    layer("core.glue.ns_per_sample.b1", "ns", Lower),
    layer("core.glue.ns_per_sample.b64", "ns", Lower),
    layer("core.predict.ns_per_sample.b1", "ns", Lower),
    layer("core.predict.ns_per_sample.b64", "ns", Lower),
    layer("core.predict.ns_per_sample.b512", "ns", Lower),
    layer("core.predict.ns_per_sample.dart_s", "ns", Lower),
    layer("core.predict.ns_per_sample.dart_l", "ns", Lower),
    layer("core.eq22_cycles", "cycles", Lower),
    layer("core.eq23_bytes", "B", Lower),
    layer("core.speedup_vs_student", "x", Higher),
    layer("core.speedup_vs_teacher", "x", Higher),
    layer("core.tabularize.s", "s", Lower),
    layer("core.f1_drop", "fraction", Lower),
    layer("nn.student_forward.us", "us", Lower),
    layer("nn.teacher_forward.us", "us", Lower),
    layer("nn.teacher_train.s", "s", Lower),
    layer("nn.distill.s", "s", Lower),
    layer("nn.teacher_f1", "fraction", Higher),
    layer("nn.student_f1", "fraction", Higher),
    layer("trace.generate.records_per_s", "1/s", Higher),
    layer("trace.build_dataset.samples_per_s", "1/s", Higher),
    layer("trace.features.ns_per_token", "ns", Lower),
    layer("trace.decode_bitmap.ns_per_call", "ns", Lower),
    layer("sim.null.records_per_s", "1/s", Higher),
    layer("sim.bo.records_per_s", "1/s", Higher),
    layer("sim.dart.records_per_s", "1/s", Higher),
    layer("prefetch.dart.ns_per_access", "ns", Lower),
    layer("prefetch.bo.ns_per_access", "ns", Lower),
    layer("sim.llc_accesses", "count", Lower),
    layer("sim.dart.prefetches_issued", "count", Lower),
    layer("sim.dart.prefetches_useful", "count", Higher),
    layer("sim.dart.prefetches_late", "count", Lower),
    layer("sim.dart.prefetches_dropped", "count", Lower),
    layer("sim.bo.ipc_gain_pct", "%", Higher),
    layer("dart_accuracy", "fraction", Higher),
    layer("dart_coverage", "fraction", Higher),
    layer("dart_ipc_gain_pct", "%", Higher),
    layer("tabular_f1", "fraction", Higher),
    layer("serve.router.ns_per_req", "ns", Lower),
    layer("serve.features.ns_per_req", "ns", Lower),
    layer("serve.submit.ns_per_req", "ns", Lower),
    layer("serve.take.ns_per_resp", "ns", Lower),
    layer("serve.batch.mean", "count", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.warm_share", "share", Higher),
    layer("serve.queue_depth.max", "count", Lower),
    layer("serve.small_model.rps", "1/s", Higher),
    layer("serve.handoff.ns_per_req", "ns", Lower),
    layer("net.wire.decode.ns_per_frame", "ns", Lower),
    layer("net.wire.encode_response.ns_per_frame", "ns", Lower),
    layer("net.rtt_idle.p50_us", "us", Lower),
    layer("net.handoff.ns_per_req", "ns", Lower),
    layer("net.overhead_share", "share", Lower),
    layer("net.batched_writes_share", "share", Higher),
    layer("net.writable_registrations", "count", Lower),
    layer("net.nack_share", "share", Lower),
    layer("net.open.r1.p50_us", "us", Lower),
    layer("net.open.r1.p99_us", "us", Lower),
    layer("net.open.r3.p50_us", "us", Lower),
    layer("net.open.r3.p99_us", "us", Lower),
    layer("net.open.slo_rate_rps", "1/s", Higher),
    layer("perf.gen.late_share", "share", Lower),
    layer("perf.gen.max_late_us", "us", Lower),
    layer("perf.trace_overhead_share", "share", Lower),
    layer("perf.samples", "count", Higher),
    layer("perf.failed_share", "share", Lower),
    layer("perf.build_s", "s", Lower),
    layer("latency_p50_us", "us", Lower),
    layer("latency_p95_us", "us", Lower),
    layer("latency_p99_us", "us", Lower),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// Whether `name` is one of the six workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| {
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            json!({ "name": w.name, "why": why })
        })
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.word(),
                "bound": m.bound.expect("end-to-end metrics carry a bound")
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.word() }))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "perf/Cargo.toml", "--"
        ],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "metric {} named twice", m.name);
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(m.unit.len() <= 16 && m.unit.chars().all(unit_ok), "bad unit {}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "why of {} has {} characters", w.name, why.len());
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(), "regenerate with `dart-perf schema`");
    }
}
