//! The Prometheus-style plaintext exposition of [`ServeStats`].
//!
//! [`render_exposition`] is a pure function of a stats snapshot, so the
//! document is deterministic given the numbers — the golden test
//! (`tests/exposition_golden.rs`) pins every metric name, `# HELP` /
//! `# TYPE` line, and the ordering; renaming a metric breaks CI instead
//! of breaking downstream scrapers silently.
//!
//! Metric catalog (all durations in nanoseconds; see the README
//! "Observability" section for how to read them):
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `dart_serve_uptime_seconds` | gauge | seconds since runtime start |
//! | `dart_serve_requests_total{shard}` | counter | requests answered |
//! | `dart_serve_predictions_total` | counter | warm-stream predictions |
//! | `dart_serve_batches_total` | counter | batches served |
//! | `dart_serve_failed_total` | counter | failure responses |
//! | `dart_serve_worker_panics_total` | counter | dead shard workers |
//! | `dart_serve_worker_panic_info{shard,reason}` | gauge | 1 per dead worker, reason label |
//! | `dart_serve_stream_evictions_total` | counter | LRU stream evictions |
//! | `dart_serve_stream_retirements_total` | counter | dead-connection stream retirements |
//! | `dart_serve_token_rows_computed_total{shard}` | counter | token rows encoded |
//! | `dart_serve_token_rows_reused_total{shard}` | counter | window rows taken from stream rings |
//! | `dart_serve_in_flight` | gauge | submitted, unanswered |
//! | `dart_serve_queue_depth` | gauge | queued, undrained |
//! | `dart_serve_resident_streams{shard}` | gauge | streams in LRU |
//! | `dart_serve_max_batch` | gauge | largest coalesced batch |
//! | `dart_serve_model_version` | gauge | active model version (slot epoch) |
//! | `dart_serve_model_swaps_total` | counter | model hot-swaps since start |
//! | `dart_serve_model_rollbacks_total` | counter | model rollbacks since start |
//! | `dart_serve_shard_model_version{shard}` | gauge | version each shard adopted |
//! | `dart_serve_request_latency_nanoseconds` | histogram | queue+serve |
//! | `dart_serve_batch_size` | histogram | coalesced batch sizes |
//! | `dart_serve_stage_duration_nanoseconds{stage}` | histogram | lifecycle stages: `queue_wait` (per request), then per batch `coalesce` (drain → its `StreamEngine::step` begins), `kernel` (the step, feature rows included), `sink` (→ delivered) |

use dart_telemetry::{Exposition, MetricKind};

use crate::runtime::ServeStats;

/// Render one stats snapshot as a plaintext exposition document.
///
/// Deterministic: same stats, same string. The per-shard series are
/// labelled `{shard="i"}` in shard order; the four lifecycle stages share
/// one histogram family labelled `{stage="..."}` in pipeline order
/// (queue_wait → coalesce → kernel → sink).
pub fn render_exposition(stats: &ServeStats) -> String {
    let mut e = Exposition::new();

    e.header("dart_serve_uptime_seconds", MetricKind::Gauge, "Seconds since the runtime started.");
    e.sample("dart_serve_uptime_seconds", &[], format!("{:.3}", stats.uptime_ns as f64 / 1e9));

    e.header(
        "dart_serve_requests_total",
        MetricKind::Counter,
        "Requests answered by shard workers (failure responses are counted \
         in dart_serve_failed_total instead).",
    );
    let shard_ids: Vec<String> =
        (0..stats.per_shard_requests.len()).map(|i| i.to_string()).collect();
    for (id, &n) in shard_ids.iter().zip(&stats.per_shard_requests) {
        e.sample("dart_serve_requests_total", &[("shard", id.as_str())], n);
    }

    e.header(
        "dart_serve_predictions_total",
        MetricKind::Counter,
        "Model predictions made (requests whose stream history was warm).",
    );
    e.sample("dart_serve_predictions_total", &[], stats.predictions);

    e.header(
        "dart_serve_batches_total",
        MetricKind::Counter,
        "Batches served (one encode_tokens call each) across all shards.",
    );
    e.sample("dart_serve_batches_total", &[], stats.batches);

    e.header(
        "dart_serve_failed_total",
        MetricKind::Counter,
        "Failure responses delivered (worker panic, dead shard, shutdown).",
    );
    e.sample("dart_serve_failed_total", &[], stats.failed);

    e.header(
        "dart_serve_worker_panics_total",
        MetricKind::Counter,
        "Shard workers that died; non-zero means degraded capacity.",
    );
    e.sample("dart_serve_worker_panics_total", &[], stats.worker_panics.len());

    // Only emitted when a worker has actually died: an info-style gauge
    // whose `reason` label carries the panic message verbatim. Panic
    // payloads are arbitrary strings — quotes, backslashes, newlines —
    // so this family is exactly the place where label escaping must hold
    // (tests/exposition_escape.rs proves it stays parseable).
    if !stats.worker_panics.is_empty() {
        e.header(
            "dart_serve_worker_panic_info",
            MetricKind::Gauge,
            "One series per dead shard worker; the reason label is the \
             panic message.",
        );
        for (shard, reason) in &stats.worker_panics {
            let id = shard.to_string();
            e.sample(
                "dart_serve_worker_panic_info",
                &[("shard", id.as_str()), ("reason", reason.as_str())],
                1,
            );
        }
    }

    e.header(
        "dart_serve_stream_evictions_total",
        MetricKind::Counter,
        "Streams evicted by the per-shard LRU cap.",
    );
    e.sample("dart_serve_stream_evictions_total", &[], stats.stream_evictions);

    e.header(
        "dart_serve_stream_retirements_total",
        MetricKind::Counter,
        "Streams retired by dead-connection cleanup.",
    );
    e.sample("dart_serve_stream_retirements_total", &[], stats.stream_retirements);

    e.header(
        "dart_serve_token_rows_computed_total",
        MetricKind::Counter,
        "Token rows encoded: one per request, plus a stream's whole \
         history on its first request after a model swap.",
    );
    for (id, &n) in shard_ids.iter().zip(&stats.per_shard_token_rows_computed) {
        e.sample("dart_serve_token_rows_computed_total", &[("shard", id.as_str())], n);
    }

    e.header(
        "dart_serve_token_rows_reused_total",
        MetricKind::Counter,
        "Token rows of served windows taken from a stream's ring instead \
         of being encoded again (seq_len - 1 per warm request).",
    );
    for (id, &n) in shard_ids.iter().zip(&stats.per_shard_token_rows_reused) {
        e.sample("dart_serve_token_rows_reused_total", &[("shard", id.as_str())], n);
    }

    e.header("dart_serve_in_flight", MetricKind::Gauge, "Requests submitted but not yet answered.");
    e.sample("dart_serve_in_flight", &[], stats.in_flight);

    e.header(
        "dart_serve_queue_depth",
        MetricKind::Gauge,
        "Requests sitting in shard queues, not yet drained by a worker.",
    );
    e.sample("dart_serve_queue_depth", &[], stats.queue_depth);

    e.header(
        "dart_serve_resident_streams",
        MetricKind::Gauge,
        "Streams resident in each shard's bounded LRU map.",
    );
    for (id, &n) in shard_ids.iter().zip(&stats.per_shard_streams) {
        e.sample("dart_serve_resident_streams", &[("shard", id.as_str())], n);
    }

    e.header(
        "dart_serve_max_batch",
        MetricKind::Gauge,
        "Largest coalesced batch observed on any shard.",
    );
    e.sample("dart_serve_max_batch", &[], stats.max_batch);

    e.header(
        "dart_serve_model_version",
        MetricKind::Gauge,
        "Active model version (ModelSlot epoch; starts at 1, bumps on \
         every hot-swap including rollbacks). Correlate latency or \
         hit-rate shifts with promotions through this.",
    );
    e.sample("dart_serve_model_version", &[], stats.model_version);

    e.header(
        "dart_serve_model_swaps_total",
        MetricKind::Counter,
        "Model hot-swaps since startup (promotions + rollbacks).",
    );
    e.sample("dart_serve_model_swaps_total", &[], stats.model_swaps);

    e.header(
        "dart_serve_model_rollbacks_total",
        MetricKind::Counter,
        "Explicit model rollbacks since startup (each also counts as a \
         swap).",
    );
    e.sample("dart_serve_model_rollbacks_total", &[], stats.model_rollbacks);

    e.header(
        "dart_serve_shard_model_version",
        MetricKind::Gauge,
        "Model version each shard worker most recently adopted (0 = \
         initial adoption still pending; lagging = may serve one more \
         batch on the previous version).",
    );
    for (id, &v) in shard_ids.iter().zip(&stats.per_shard_model_version) {
        e.sample("dart_serve_shard_model_version", &[("shard", id.as_str())], v);
    }

    e.header(
        "dart_serve_request_latency_nanoseconds",
        MetricKind::Histogram,
        "Request latency (enqueue to response), log2 buckets.",
    );
    e.histogram("dart_serve_request_latency_nanoseconds", &[], &stats.latency);

    e.header(
        "dart_serve_batch_size",
        MetricKind::Histogram,
        "Coalesced batch-size distribution (requests per served batch).",
    );
    e.histogram("dart_serve_batch_size", &[], &stats.batch_sizes);

    e.header(
        "dart_serve_stage_duration_nanoseconds",
        MetricKind::Histogram,
        "Request-lifecycle stage durations (queue_wait per request; \
         coalesce/kernel/sink per batch).",
    );
    for (stage, hist) in [
        ("queue_wait", &stats.stage_queue_wait),
        ("coalesce", &stats.stage_coalesce),
        ("kernel", &stats.stage_kernel),
        ("sink", &stats.stage_sink),
    ] {
        e.histogram("dart_serve_stage_duration_nanoseconds", &[("stage", stage)], hist);
    }

    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_deterministic_and_covers_the_catalog() {
        let mut stats = ServeStats {
            requests: 7,
            per_shard_requests: vec![4, 3],
            per_shard_streams: vec![2, 1],
            model_version: 3,
            model_swaps: 2,
            model_rollbacks: 1,
            per_shard_model_version: vec![3, 2],
            ..ServeStats::default()
        };
        stats.latency.record(900);
        let a = render_exposition(&stats);
        let b = render_exposition(&stats);
        assert_eq!(a, b);
        for name in [
            "dart_serve_uptime_seconds",
            "dart_serve_requests_total{shard=\"1\"} 3",
            "dart_serve_model_version 3",
            "dart_serve_model_swaps_total 2",
            "dart_serve_model_rollbacks_total 1",
            "dart_serve_shard_model_version{shard=\"1\"} 2",
            "dart_serve_request_latency_nanoseconds_count 1",
            "dart_serve_stage_duration_nanoseconds_bucket{stage=\"kernel\",le=\"+Inf\"} 0",
        ] {
            assert!(a.contains(name), "missing `{name}` in:\n{a}");
        }
        // Every non-comment line belongs to a family announced by a TYPE
        // line (scrapers reject untyped samples in strict mode).
        let typed: Vec<&str> = a
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        for line in a.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(typed.contains(&base), "sample `{name}` has no TYPE line");
        }
    }
}
