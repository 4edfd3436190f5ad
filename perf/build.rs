//! Captures what the machine + build descriptor cannot learn at run time:
//! the compiler version and the commit the binary was built from.

use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = stdout_of(Command::new(rustc).arg("--version")).unwrap_or_default();
    println!("cargo:rustc-env=PERF_RUSTC_VERSION={version}");

    // A benchmark checkout is not always a git repository; only watch
    // HEAD where it exists (a missing watched path would force a rebuild
    // on every run).
    let head = std::path::Path::new("../.git/HEAD");
    let commit = if head.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        stdout_of(Command::new("git").args(["rev-parse", "--short=12", "HEAD"]))
    } else {
        None
    };
    println!("cargo:rustc-env=PERF_GIT_COMMIT={}", commit.unwrap_or_else(|| "unknown".into()));
    println!("cargo:rustc-env=PERF_PROFILE={}", std::env::var("PROFILE").unwrap_or_default());
}
