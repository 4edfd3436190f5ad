//! The observability surface is live on the plain default build: stage
//! histograms, the span ring, the `dart-pq` kernel counters and the
//! resolved SIMD level are all populated by serving traffic alone — and a
//! malformed `DART_SIMD` is rejected by `ServeRuntime::start` itself, on
//! the caller's thread, before any worker exists.

use std::collections::HashSet;
use std::process::Command;
use std::sync::Arc;

use dart_core::TabularModel;
use dart_serve::{
    drill_model, drill_pre, generate_requests, LoadGenConfig, ServeConfig, ServeRuntime,
};

/// Value of the sample line starting with `series` in an exposition.
fn sample(doc: &str, series: &str) -> u64 {
    let line = doc
        .lines()
        .find(|l| l.strip_prefix(series).is_some_and(|rest| rest.starts_with(' ')))
        .unwrap_or_else(|| panic!("no `{series}` sample in:\n{doc}"));
    line.rsplit_once(' ').unwrap().1.parse().unwrap()
}

#[test]
fn tracing_is_live_on_the_default_build() {
    let pre = drill_pre();
    let model = drill_model(&pre, 3);
    let reqs = generate_requests(&LoadGenConfig { streams: 8, accesses_per_stream: 20, seed: 1 });
    let n = reqs.len();
    // One ring smaller than the traffic, one larger: `min(N, capacity)`.
    for span_capacity in [32usize, 256] {
        let cfg = ServeConfig {
            shards: 2,
            max_batch: 16,
            threshold: 0.0,
            span_capacity,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::start(Arc::clone(&model), pre, cfg);
        runtime.submit_all(reqs.clone());
        runtime.wait_idle();
        let served: HashSet<(u64, u64)> =
            runtime.drain_completed().iter().map(|r| (r.stream_id, r.seq)).collect();
        assert_eq!(served.len(), n);

        // Everything below reads the RUNNING runtime; `wait_idle` is the
        // only synchronisation (a batch's telemetry is recorded before
        // its in-flight slots are released).
        let stats = runtime.stats_snapshot();
        assert_eq!(stats.requests as usize, n);
        assert!(stats.per_shard_requests.iter().all(|&r| r > 0), "both shards must serve");
        assert!(stats.batches > 0);
        assert_eq!(stats.stage_queue_wait.count(), stats.requests);
        assert_eq!(stats.stage_coalesce.count(), stats.batches);
        assert_eq!(stats.stage_kernel.count(), stats.batches);
        assert_eq!(stats.stage_sink.count(), stats.batches);

        let spans = runtime.recent_spans();
        assert_eq!(spans.len(), n.min(span_capacity));
        for span in &spans {
            assert!(
                served.contains(&(span.stream_id, span.seq)),
                "span for a request never served: {span:?}"
            );
            assert_eq!(span.shard, runtime.router().shard_of(span.stream_id));
            assert!((1..=16).contains(&span.batch_size), "{span:?}");
        }

        // The scrape surface says the same, plus the global registry's
        // kernel counters and the resolved SIMD level.
        let doc = runtime.render_metrics();
        let stage = |s: &str| {
            sample(&doc, &format!("dart_serve_stage_duration_nanoseconds_count{{stage=\"{s}\"}}"))
        };
        assert_eq!(stage("queue_wait"), stats.requests);
        assert_eq!(stage("kernel"), stats.batches);
        assert!(sample(&doc, "dart_pq_kernel_rows_total{kernel=\"encode_batch\"}") > 0);
        let level = dart_pq::simd::active_level();
        assert_eq!(sample(&doc, &format!("dart_pq_simd_level{{level=\"{level}\"}}")), 1);
        runtime.shutdown();
    }
}

/// Set (to the model-JSON path) only in the child process spawned below.
const CHILD_MODEL_ENV: &str = "DART_SERVE_TEST_SIMD_CHILD_MODEL";
const CHILD_MARKER: &str = "start rejected DART_SIMD on the calling thread";

/// `DART_SIMD` is read once per process, so the malformed value is given
/// to a child copy of this test binary instead of mutating this process's
/// environment under the other tests. The child loads a model from JSON
/// (deserialization runs no kernel, so nothing resolves the dispatch
/// before `start`) and must see `start` itself panic — `catch_unwind`
/// only catches panics of the calling thread, so a panic inside a shard
/// worker (the parent commit's behaviour) would let `start` return.
#[test]
fn malformed_dart_simd_fails_start_on_the_calling_thread() {
    let pre = drill_pre();
    if let Some(path) = std::env::var_os(CHILD_MODEL_ENV) {
        let json = std::fs::read_to_string(path).expect("child reads the model file");
        let model = Arc::new(TabularModel::from_json(&json).expect("model JSON"));
        let cfg = ServeConfig { shards: 2, ..ServeConfig::default() };
        let outcome = std::panic::catch_unwind(|| ServeRuntime::start(model, pre, cfg));
        let payload = match outcome {
            Ok(runtime) => {
                runtime.shutdown();
                panic!("start accepted DART_SIMD=bogus");
            }
            Err(payload) => payload,
        };
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("DART_SIMD") && msg.contains("bogus"), "{msg}");
        println!("{CHILD_MARKER}");
        return;
    }

    let path = std::env::temp_dir().join(format!("dart-serve-simd-{}.json", std::process::id()));
    std::fs::write(&path, drill_model(&pre, 3).to_json()).expect("write model file");
    let child = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "malformed_dart_simd_fails_start_on_the_calling_thread",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("DART_SIMD", "bogus")
        .env(CHILD_MODEL_ENV, &path)
        .output()
        .expect("spawn child test process");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&child.stdout);
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(
        child.status.success() && stdout.contains(CHILD_MARKER),
        "child did not reject DART_SIMD in start:\n--- stdout\n{stdout}\n--- stderr\n{stderr}"
    );
}
