//! The `exp` binary at its real surface: exit statuses, the index it
//! prints on a bad name, strict environment knobs, and the record files.
//! Only the closed-form experiments run here (milliseconds, no training).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dart_bench::exp::REGISTRY;

/// A fresh working directory under cargo's per-test scratch space, so the
/// `target/experiments/` records land there and tests do not share files.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn exp(cwd: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .current_dir(cwd)
        .env_remove("DART_SCALE")
        .env_remove("DART_WORKLOADS")
        .envs(env.iter().copied())
        .output()
        .expect("spawn exp")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn unknown_name_exits_2_and_prints_the_index() {
    let cwd = scratch("unknown_name");
    let out = exp(&cwd, &["table3", "table_5"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the names are checked");
    let stderr = text(&out.stderr);
    assert!(stderr.contains("unknown experiment `table_5`"), "{stderr}");
    for e in &REGISTRY {
        assert!(stderr.contains(e.name) && stderr.contains(e.artefact), "{}: {stderr}", e.name);
    }
    assert!(!cwd.join("target").exists());

    let listed = exp(&cwd, &["list"], &[]);
    assert_eq!(listed.status.code(), Some(0));
    assert!(stderr.ends_with(&format!("{}\n", text(&listed.stdout))), "same index both ways");
}

#[test]
fn malformed_scale_or_workloads_exit_2_naming_the_accepted_values() {
    let cwd = scratch("strict_env");
    for (knob, bad, accepted) in
        [("DART_SCALE", "ful", "`quick` or `full`"), ("DART_WORKLOADS", "many", "1..=8")]
    {
        let out = exp(&cwd, &["table3"], &[(knob, bad)]);
        assert_eq!(out.status.code(), Some(2), "{knob}={bad}");
        assert!(out.stdout.is_empty());
        let stderr = text(&out.stderr);
        assert!(stderr.contains(knob) && stderr.contains(accepted), "{stderr}");
    }
    let ok = exp(&cwd, &["table3"], &[("DART_SCALE", "FULL"), ("DART_WORKLOADS", "2")]);
    assert_eq!(ok.status.code(), Some(0), "{}", text(&ok.stderr));
}

#[test]
fn experiments_run_in_the_order_given_and_record_what_they_print() {
    let cwd = scratch("records");
    let out = exp(&cwd, &["fig10", "table5"], &[]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let at = |needle: &str| stdout.find(needle).unwrap_or_else(|| panic!("{needle}: {stdout}"));
    assert!(at("=== Fig. 10a") < at("[recorded target/experiments/fig10.json]"));
    assert!(at("[recorded target/experiments/fig10.json]") < at("=== Table V"));
    assert!(at("=== Table V") < at("[recorded target/experiments/table5.json]"));
    assert!(!stdout.contains("DESIGN.md") && !stdout.contains("EXPERIMENTS.md"));
    for name in ["fig10", "table5"] {
        let record = cwd.join(format!("target/experiments/{name}.json"));
        let json = std::fs::read_to_string(&record).expect("record written");
        assert!(json.contains("\"latency"), "{json}");
    }
}

/// A record that could not be written is a warning, never a `[recorded …]` line.
#[test]
fn a_failed_record_is_a_warning_not_a_claim() {
    let cwd = scratch("unwritable");
    std::fs::write(cwd.join("target"), "in the way").expect("block the record directory");
    let out = exp(&cwd, &["table8"], &[]);
    assert_eq!(out.status.code(), Some(0), "records are best-effort");
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(stdout.contains("=== Table VIII") && !stdout.contains("[recorded"), "{stdout}");
    assert!(
        stderr.contains("warning: could not record target/experiments/table8.json"),
        "{stderr}"
    );
}
