//! Strict environment-knob parsing for the benchmark binaries.
//!
//! Benchmarks must not silently fall back when a knob is present but
//! malformed (`DART_NUM_THREADS=fourty` quietly meaning "default" skews
//! every number printed afterwards); they exit with a diagnostic instead.
//! Each knob's rule is a pure `fn(Option<&str>) -> Result<_, String>` (unit
//! tested without touching the process environment); [`or_exit`] is the
//! one place a rejected value ends the process.

/// Unwrap a parsed knob, or print the diagnostic and exit with status 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Interpret a `DART_WORKLOADS` value: how many of the eight Table IV
/// workloads the training-heavy experiments cover. Unset → all 8;
/// anything but an integer in `1..=8` is an error.
pub fn parse_workloads(value: Option<&str>) -> Result<usize, String> {
    match value.map(|v| (v, v.trim().parse::<usize>())) {
        None => Ok(8),
        Some((_, Ok(n))) if (1..=8).contains(&n) => Ok(n),
        Some((raw, _)) => Err(format!("DART_WORKLOADS must be an integer in 1..=8, got `{raw}`")),
    }
}

/// Validate `DART_NUM_THREADS` (exit 2 with a diagnostic on an invalid
/// value, *before* the global pool's panic path can fire inside a worker),
/// then report and return the effective kernel thread count (instantiates
/// the global pool).
pub fn announce_threads() -> usize {
    if let Ok(raw) = std::env::var(rayon::THREADS_ENV) {
        or_exit(rayon::parse_thread_count(&raw));
    }
    let threads = rayon::current_num_threads();
    println!(
        "kernel pool: {threads} thread(s) ({} {})",
        rayon::THREADS_ENV,
        std::env::var(rayon::THREADS_ENV).map_or_else(
            |_| "unset, using available parallelism".to_string(),
            |v| format!("= {v}")
        ),
    );
    threads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dart_workloads_values_parse_strictly() {
        assert_eq!(parse_workloads(None), Ok(8));
        for (raw, n) in [("1", 1), ("8", 8), (" 2\n", 2)] {
            assert_eq!(parse_workloads(Some(raw)), Ok(n), "{raw:?}");
        }
        for bad in ["", "0", "9", "two", "-1", "1.5"] {
            let err = parse_workloads(Some(bad)).expect_err(bad);
            assert!(err.contains("DART_WORKLOADS") && err.contains("1..=8"), "{err}");
        }
    }
}
