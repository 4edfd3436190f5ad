//! The `loadgen` binary at its real surface: the verdict's exit status in
//! process and over loopback TCP, the exit-1 path, and usage errors that
//! exit 2 before anything starts.

use std::process::{Command, Output};

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen")).args(args).output().expect("spawn loadgen")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

const TINY: [&str; 6] = ["--streams", "8", "--accesses", "12", "--shards", "2"];

#[test]
fn in_process_run_exits_0_and_prints_the_exposition_block() {
    let out = loadgen(&TINY);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{}", text(&out.stderr));
    assert!(stdout.contains("96 submitted, 96 responses, 0 nacks, 0 failed, 0 lost"), "{stdout}");
    let at = |needle: &str| stdout.find(needle).unwrap_or_else(|| panic!("{needle}: {stdout}"));
    let queued = "\ndart_serve_stage_duration_nanoseconds_count{stage=\"queue_wait\"} 96\n";
    assert!(at("--- metrics exposition ---") < at(queued));
    assert!(at(queued) < at("--- end exposition ---"));
    assert!(stdout.ends_with("loadgen: OK\n"), "{stdout}");
}

#[test]
fn tcp_run_drives_exactly_the_streams_asked_for_and_exits_0() {
    // 8 streams over 3 connections: not a multiple, still 8 streams.
    let out = loadgen(&[&TINY[..], &["--tcp", "127.0.0.1:0", "--conns", "3"]].concat());
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{}", text(&out.stderr));
    assert!(stdout.contains("96 submitted, 96 responses, 0 nacks, 0 failed, 0 lost"), "{stdout}");
    assert!(stdout.contains("\ndart_net_frames_in_total 96\n"), "{stdout}");
    assert!(stdout.ends_with("loadgen: OK\n"), "{stdout}");
}

#[test]
fn a_swap_that_never_triggers_exits_1() {
    let out = loadgen(&[&TINY[..], &["--swap-at", "1000000"]].concat());
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(stderr.contains("never triggered") && stderr.contains("loadgen: FAILED"), "{stderr}");
    assert!(!text(&out.stdout).contains("loadgen: OK"));

    // A run this short may be over before the watcher's first wait ends:
    // the swap then fires on the final check, and says so.
    let fired = loadgen(&[&TINY[..], &["--swap-at", "1"]].concat());
    assert_eq!(fired.status.code(), Some(0), "{}", text(&fired.stderr));
    let stdout = text(&fired.stdout);
    assert!(stdout.contains("\ndart_serve_model_swaps_total 1\n"), "{stdout}");
    let when =
        stdout.lines().find_map(|l| l.strip_prefix("loadgen: hot-swapped to model version 2 "));
    assert!(matches!(when, Some("mid-run" | "at the end of the run")), "{stdout}");
}

#[test]
fn bad_usage_exits_2_with_the_usage_text_and_starts_nothing() {
    for (args, complaint) in [
        (&["--stream", "8"][..], "unknown flag `--stream`"),
        (&["--streams", "0"][..], "--streams 0: expected an integer >= 1"),
        (&["--tcp", "127.0.0.1:0", "--conns", "x"][..], "--conns x: expected an integer >= 1"),
        (&["--accesses"][..], "--accesses needs a value"),
        (&["--tcp", "nowhere"][..], "--tcp nowhere: expected ip:port"),
        (&["--conns", "2"][..], "--conns needs --tcp"),
    ] {
        let out = loadgen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} started something: {}", text(&out.stdout));
        let stderr = text(&out.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: loadgen [--streams N]"), "{args:?}: {stderr}");
    }
}
