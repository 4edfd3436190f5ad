//! Golden test pinning the plaintext exposition format byte-for-byte.
//!
//! The exposition is a public scrape surface: renaming a metric, dropping
//! a `# HELP`/`# TYPE` line, or reordering families breaks downstream
//! scrapers silently. This test renders a hand-built, fully deterministic
//! `ServeStats` and compares against `tests/fixtures/exposition.golden`.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```sh
//! DART_REGEN_GOLDEN=1 cargo test -p dart-serve --test exposition_golden
//! ```
//!
//! then review the fixture diff like any other API change.

use std::path::PathBuf;

use dart_serve::{render_exposition, ServeStats};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/exposition.golden")
}

/// A stats snapshot with every field populated deterministically — no
/// clocks, no threads, so the rendered document is bit-stable.
fn sample_stats() -> ServeStats {
    let mut s = ServeStats {
        requests: 120,
        failed: 3,
        worker_panics: vec![(1, "fault injection".into())],
        predictions: 96,
        batches: 20,
        max_batch: 16,
        per_shard_requests: vec![70, 50],
        per_shard_streams: vec![5, 4],
        stream_evictions: 2,
        per_shard_token_rows_computed: vec![82, 58],
        per_shard_token_rows_reused: vec![840, 600],
        model_version: 3,
        model_swaps: 2,
        model_rollbacks: 1,
        per_shard_model_version: vec![3, 2],
        in_flight: 4,
        queue_depth: 7,
        uptime_ns: 2_500_000_000,
        ..ServeStats::default()
    };
    for v in [800, 900, 1_500, 70_000] {
        s.latency.record(v);
    }
    for v in [1, 4, 16, 16] {
        s.batch_sizes.record(v);
    }
    for v in [200, 300] {
        s.stage_queue_wait.record(v);
    }
    s.stage_coalesce.record(5_000);
    s.stage_kernel.record(40_000);
    s.stage_sink.record(900);
    s.p50_latency_ns = s.latency.percentile(0.50);
    s.p99_latency_ns = s.latency.percentile(0.99);
    s.mean_latency_ns = s.latency.mean() as u64;
    s
}

#[test]
fn exposition_matches_golden_fixture() {
    let rendered = render_exposition(&sample_stats());
    let path = fixture_path();
    if std::env::var_os("DART_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with DART_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "exposition format drifted from the golden fixture; if the change \
         is intentional, regenerate with DART_REGEN_GOLDEN=1 and review \
         the fixture diff"
    );
}

#[test]
fn live_runtime_exposition_parses_like_the_golden() {
    // Sanity on the live path: every sample line of a golden document has
    // the `name{labels} value` shape with a numeric value.
    let doc = render_exposition(&sample_stats());
    for line in doc.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(value.parse::<f64>().is_ok(), "non-numeric sample value in line: {line}");
    }
}
