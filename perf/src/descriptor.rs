//! The machine + build descriptor stamped into every output file, so
//! numbers are only ever compared like for like.

use serde::{Deserialize, Serialize};

/// Where and how a result was produced.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The kernel dispatch level `dart-pq` selected at run time.
    pub simd_level: String,
    /// Cargo features of the measured crates.
    pub cargo_features: String,
    /// Cargo profile the benchmark and the crates were built with.
    pub profile: String,
    /// `rustc --version` at build time.
    pub rustc: String,
    /// `dart-net`'s poller backend.
    pub poller: String,
    /// Commit the binary was built from (`unknown` outside a git checkout).
    pub git_commit: String,
}

impl Descriptor {
    /// Describe this process.
    pub fn detect() -> Descriptor {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let poller = dart_net::sys::Poller::new()
            .map(|p| p.backend_name().to_string())
            .unwrap_or_else(|e| format!("unavailable ({e})"));
        Descriptor {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            simd_level: format!("{:?}", dart_pq::simd::active_level()),
            // `perf/Cargo.toml` enables no feature of any crate: this is
            // what tier-1 builds.
            cargo_features: "default".to_string(),
            profile: env!("PERF_PROFILE").to_string(),
            rustc: env!("PERF_RUSTC_VERSION").to_string(),
            poller,
            git_commit: env!("PERF_GIT_COMMIT").to_string(),
        }
    }

    /// Whether results from `other` may be compared with results from
    /// `self`: everything but the commit must agree (the commit is what a
    /// comparison is usually about).
    pub fn comparable(&self, other: &Descriptor) -> bool {
        let strip = |d: &Descriptor| Descriptor { git_commit: String::new(), ..d.clone() };
        strip(self) == strip(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_alone_does_not_block_a_comparison() {
        let a = Descriptor::detect();
        let mut b = a.clone();
        b.git_commit = "0123456789ab".to_string();
        assert!(a.comparable(&b));
        b.nproc += 1;
        assert!(!a.comparable(&b));
    }
}
