//! Synthetic SPEC-like workload generators.
//!
//! The paper evaluates on LLC traces of eight SPEC CPU 2006/2017 apps
//! (Table IV). Those traces are not redistributable, so this module
//! generates synthetic access streams whose *pattern class* (streaming,
//! strided stencil, region-hopping, pointer-chasing) and trace statistics
//! (unique block addresses / pages / deltas) track the paper's Table IV —
//! the properties §VII-B identifies as governing prediction difficulty.
//!
//! Every generator is deterministic given a seed.

mod patterns;

pub use patterns::{AccessPattern, ArraySpec};

use dart_nn::init::InitRng;

use crate::record::TraceRecord;
use patterns::{MixedState, PatternState};

/// The pattern class of a workload.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadKind {
    /// Parallel sequential streams with per-stream strides (bwaves/libquantum).
    Streaming {
        /// Number of interleaved streams.
        streams: usize,
        /// Stride choices, in blocks (each stream picks one).
        strides: Vec<i64>,
        /// Footprint in 4 KiB pages.
        region_pages: u64,
        /// Probability a stream restarts at a random offset per access.
        restart_prob: f32,
    },
    /// Multi-array stencil sweeps (leslie3d/lbm): fixed block strides per array.
    Stencil {
        /// The arrays being swept.
        arrays: Vec<ArraySpec>,
    },
    /// Short sequential bursts at random pages (milc-like irregular-regular).
    RegionHop {
        /// Footprint in pages.
        region_pages: u64,
        /// Blocks touched per burst.
        burst_len: usize,
    },
    /// Pointer chasing over a randomized node graph (mcf-like).
    PointerChase {
        /// Number of graph nodes (one block each).
        nodes: usize,
        /// Footprint in pages the nodes are scattered over.
        region_pages: u64,
    },
    /// Weighted mixture of other kinds (gcc/wrf-like).
    Mixed {
        /// `(weight, kind)` components; weights need not be normalized.
        parts: Vec<(f32, WorkloadKind)>,
        /// Accesses the active component keeps before re-drawing.
        burst: usize,
    },
}

/// A named workload: pattern plus instruction-gap model.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name, e.g. `"410.bwaves"`.
    pub name: String,
    /// Pattern class.
    pub kind: WorkloadKind,
    /// Uniform range of non-memory instructions between accesses.
    pub instr_gap: (u64, u64),
}

impl Workload {
    /// Generate `len` LLC accesses deterministically from `seed`.
    pub fn generate(&self, len: usize, seed: u64) -> Vec<TraceRecord> {
        let mut rng = InitRng::new(seed ^ 0xC0FFEE);
        let mut state = PatternState::new(&self.kind, &mut rng);
        let mut records = Vec::with_capacity(len);
        let mut instr_id = 0u64;
        let (gap_lo, gap_hi) = self.instr_gap;
        for _ in 0..len {
            let (pc, addr) = state.next_access(&mut rng);
            records.push(TraceRecord { instr_id, pc, addr });
            let gap =
                if gap_hi > gap_lo { gap_lo + rng.next_u64() % (gap_hi - gap_lo) } else { gap_lo };
            instr_id += 1 + gap;
        }
        records
    }
}

/// Construct the mixed-pattern runtime for external composition tests.
pub fn mixed_state(kind: &WorkloadKind, rng: &mut InitRng) -> MixedState {
    MixedState::new(kind, rng)
}

/// The eight workloads standing in for the paper's Table IV applications.
///
/// Region sizes and pattern mixes are tuned so the generated traces land in
/// the same bands of unique pages / deltas the paper reports (regenerate the
/// comparison with `cargo run -p dart-bench --bin exp -- table4`).
pub fn spec_workloads() -> Vec<Workload> {
    vec![
        Workload {
            // 236.5K addr / 3.7K pages / 14.4K deltas — many streams.
            name: "410.bwaves".into(),
            kind: WorkloadKind::Streaming {
                streams: 16,
                strides: vec![1],
                region_pages: 3_700,
                restart_prob: 0.002,
            },
            instr_gap: (40, 120),
        },
        Workload {
            // 170.7K addr / 19.8K pages / 15.8K deltas — page-hopping bursts.
            name: "433.milc".into(),
            kind: WorkloadKind::RegionHop { region_pages: 19_800, burst_len: 8 },
            instr_gap: (40, 120),
        },
        Workload {
            // 104.3K addr / 1.7K pages / 3.6K deltas — stencil sweeps.
            name: "437.leslie3d".into(),
            kind: WorkloadKind::Stencil {
                arrays: vec![
                    ArraySpec { pages: 600, stride: 1 },
                    ArraySpec { pages: 550, stride: 9 },
                    ArraySpec { pages: 550, stride: 81 },
                ],
            },
            instr_gap: (50, 150),
        },
        Workload {
            // 347.8K addr / 5.4K pages / 0.5K deltas — nearly pure stream.
            name: "462.libquantum".into(),
            kind: WorkloadKind::Streaming {
                streams: 2,
                strides: vec![1],
                region_pages: 5_400,
                restart_prob: 0.0005,
            },
            instr_gap: (30, 90),
        },
        Workload {
            // 195.8K addr / 3.4K pages / 4.9K deltas — code-like mix.
            name: "602.gcc".into(),
            kind: WorkloadKind::Mixed {
                parts: vec![
                    (
                        0.7,
                        WorkloadKind::Streaming {
                            streams: 6,
                            strides: vec![2],
                            region_pages: 2_400,
                            restart_prob: 0.004,
                        },
                    ),
                    (0.3, WorkloadKind::RegionHop { region_pages: 1_000, burst_len: 4 }),
                ],
                burst: 16,
            },
            instr_gap: (40, 100),
        },
        Workload {
            // 176.0K addr / 3.7K pages / 207.7K deltas — pointer chasing.
            // 40K nodes trades some unique-address mass for edge revisits
            // (each node is walked ~5x in a 200K trace), which is what lets
            // *any* predictor get traction on mcf.
            name: "605.mcf".into(),
            kind: WorkloadKind::PointerChase { nodes: 40_000, region_pages: 3_700 },
            instr_gap: (60, 200),
        },
        Workload {
            // 121.8K addr / 1.9K pages / 1.2K deltas — grid sweeps.
            name: "619.lbm".into(),
            kind: WorkloadKind::Stencil {
                arrays: vec![
                    ArraySpec { pages: 950, stride: 1 },
                    ArraySpec { pages: 950, stride: 3 },
                ],
            },
            instr_gap: (40, 110),
        },
        Workload {
            // 188.5K addr / 3.3K pages / 13.7K deltas — stencil + hops.
            name: "621.wrf".into(),
            kind: WorkloadKind::Mixed {
                parts: vec![
                    (
                        0.6,
                        WorkloadKind::Stencil {
                            arrays: vec![
                                ArraySpec { pages: 1_100, stride: 1 },
                                ArraySpec { pages: 1_100, stride: 13 },
                            ],
                        },
                    ),
                    (0.4, WorkloadKind::RegionHop { region_pages: 1_100, burst_len: 6 }),
                ],
                burst: 8,
            },
            instr_gap: (40, 120),
        },
    ]
}

/// Look a workload up by (suffix of its) name, e.g. `"mcf"`.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    spec_workloads().into_iter().find(|w| w.name.contains(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn eight_workloads_defined() {
        assert_eq!(spec_workloads().len(), 8);
    }

    #[test]
    fn deterministic_generation() {
        let w = workload_by_name("bwaves").unwrap();
        let a = w.generate(1000, 42);
        let b = w.generate(1000, 42);
        assert_eq!(a, b);
        let c = w.generate(1000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn instr_ids_strictly_increase() {
        for w in spec_workloads() {
            let trace = w.generate(500, 7);
            for pair in trace.windows(2) {
                assert!(pair[1].instr_id > pair[0].instr_id, "{}", w.name);
            }
        }
    }

    #[test]
    fn libquantum_has_few_deltas_mcf_many() {
        let libq = workload_by_name("libquantum").unwrap().generate(20_000, 1);
        let mcf = workload_by_name("mcf").unwrap().generate(20_000, 1);
        let s_libq = TraceStats::compute(&libq);
        let s_mcf = TraceStats::compute(&mcf);
        assert!(
            s_libq.unique_deltas * 20 < s_mcf.unique_deltas,
            "libquantum {} vs mcf {}",
            s_libq.unique_deltas,
            s_mcf.unique_deltas
        );
    }

    #[test]
    fn milc_touches_more_pages_than_leslie() {
        let milc = workload_by_name("milc").unwrap().generate(30_000, 3);
        let les = workload_by_name("leslie3d").unwrap().generate(30_000, 3);
        assert!(TraceStats::compute(&milc).unique_pages > TraceStats::compute(&les).unique_pages);
    }

    #[test]
    fn footprints_are_bounded_by_region() {
        let w = workload_by_name("bwaves").unwrap();
        let trace = w.generate(50_000, 5);
        let stats = TraceStats::compute(&trace);
        // Streaming over 3.7K pages: page count can't exceed the region
        // (plus one page of slack for stride overshoot).
        assert!(stats.unique_pages <= 3_701 + 16, "pages {}", stats.unique_pages);
    }

    #[test]
    fn workload_by_name_misses_gracefully() {
        assert!(workload_by_name("no-such-app").is_none());
    }
}
