//! Label escaping in the exposition document must hold for arbitrary
//! panic payloads: the fault-injection panic message deliberately
//! contains a double quote, a backslash, and a newline, and it flows
//! verbatim into the `reason` label of `dart_serve_worker_panic_info`.
//! This test kills a worker, renders the metrics, and proves (a) every
//! line of the document still parses as `name{labels} value`, and
//! (b) un-escaping the `reason` label recovers the exact panic message.

use dart_serve::{drill_model, drill_pre, PrefetchRequest, ServeConfig, ServeRuntime};

fn tiny_runtime(cfg: ServeConfig) -> ServeRuntime {
    let pre = drill_pre();
    ServeRuntime::start(drill_model(&pre, 3), pre, cfg)
}

/// One parsed sample line.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
}

/// Strict parser for one exposition sample line. Returns `None` (the
/// test fails) on any malformed syntax: unterminated quote, missing `=`,
/// junk after `}`, or a value that is not a number.
fn parse_sample(line: &str) -> Option<Sample> {
    let mut chars = line.chars().peekable();
    let mut name = String::new();
    while let Some(&c) = chars.peek() {
        if c == '{' || c == ' ' {
            break;
        }
        name.push(c);
        chars.next();
    }
    if name.is_empty() {
        return None;
    }
    let mut labels = Vec::new();
    if chars.peek() == Some(&'{') {
        chars.next();
        loop {
            let mut key = String::new();
            while let Some(&c) = chars.peek() {
                if c == '=' {
                    break;
                }
                key.push(c);
                chars.next();
            }
            if chars.next() != Some('=') || chars.next() != Some('"') {
                return None;
            }
            // Un-escape the quoted value: `\\` -> `\`, `\"` -> `"`,
            // `\n` -> newline. An unescaped `"` terminates it.
            let mut value = String::new();
            loop {
                match chars.next()? {
                    '"' => break,
                    '\\' => match chars.next()? {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => {
                            panic!("unknown escape \\{other} in line {line:?}");
                        }
                    },
                    c => value.push(c),
                }
            }
            labels.push((key, value));
            match chars.next()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
    }
    if chars.next() != Some(' ') {
        return None;
    }
    let value: String = chars.collect();
    value.parse::<f64>().ok()?;
    Some(Sample { name, labels })
}

#[test]
fn panic_reasons_with_quotes_backslashes_and_newlines_stay_parseable() {
    let runtime = tiny_runtime(ServeConfig {
        shards: 1,
        max_batch: 16,
        threshold: 0.0,
        // The injected panic message contains `"quoted"`, `back\slash`,
        // and an embedded newline (see shard.rs) — the adversarial label
        // payload this test exists for.
        panic_on_stream: Some(3),
        ..ServeConfig::default()
    });
    runtime.submit(PrefetchRequest { stream_id: 3, pc: 0x400, addr: 77 << 6 });
    runtime.wait_idle();

    // `wait_idle` wakes when the batch guard releases the in-flight slot
    // mid-unwind — a moment *before* the recovery handler records the
    // panic. Poll until the info series appears.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let doc = loop {
        let doc = runtime.render_metrics();
        if doc.contains("dart_serve_worker_panic_info") {
            break doc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker panic never surfaced in the exposition:\n{doc}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };

    // The raw document must hold the *escaped* forms: a literal `\"`,
    // `\\`, and the two-character sequence `\n` — never a raw newline
    // inside a label value (that would tear the line in two).
    assert!(doc.contains("\\\"quoted\\\""), "double quote not escaped:\n{doc}");
    assert!(doc.contains("back\\\\slash"), "backslash not escaped:\n{doc}");
    assert!(doc.contains(",\\nsecond line"), "newline not escaped:\n{doc}");

    // Every non-comment line still parses as `name{labels} value`.
    let mut panic_reason = None;
    for line in doc.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample =
            parse_sample(line).unwrap_or_else(|| panic!("malformed exposition line: {line:?}"));
        if sample.name == "dart_serve_worker_panic_info" {
            let reason = sample
                .labels
                .iter()
                .find(|(k, _)| k == "reason")
                .map(|(_, v)| v.clone())
                .expect("panic_info carries a reason label");
            assert_eq!(
                sample.labels.iter().find(|(k, _)| k == "shard").map(|(_, v)| v.as_str()),
                Some("0")
            );
            panic_reason = Some(reason);
        }
    }

    // Un-escaping the label must recover the panic message byte-for-byte:
    // real quote, real backslash, real newline.
    let reason = panic_reason.expect("a dead worker must emit dart_serve_worker_panic_info");
    assert!(
        reason.contains("(\"quoted\", back\\slash,\nsecond line)"),
        "round-tripped reason lost characters: {reason:?}"
    );
    assert!(reason.contains("told to die on stream 3"), "{reason:?}");

    let stats = runtime.shutdown();
    assert_eq!(stats.worker_panics.len(), 1);
}
