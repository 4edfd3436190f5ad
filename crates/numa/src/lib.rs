//! # dart-numa — NUMA topology discovery and thread affinity
//!
//! On multi-socket hardware, every remote-node access to the flat table
//! arenas pays the interconnect tax that tabularized inference is supposed
//! to avoid — the whole point of DART is lookup-time inference, and a
//! lookup that crosses a QPI/UPI link is several times slower than a
//! node-local one. This crate gives `dart-serve` the two primitives it
//! needs to keep lookups local:
//!
//! * [`NumaTopology`] — which CPUs belong to which NUMA node, discovered
//!   from `/sys/devices/system/node` (with a graceful single-node fallback
//!   on macOS, containers, and kernels without NUMA support), and
//! * [`pin_current_thread_to`] / [`current_affinity`] — thread affinity
//!   via **raw** `sched_setaffinity`/`sched_getaffinity` syscalls (no libc
//!   dependency; inline-syscall shims for `x86_64` and `aarch64` Linux),
//!   reported as a no-op on every other target.
//!
//! Design constraints, in order:
//!
//! 1. **Behavior-neutral by default.** Everything here is observational or
//!    a scheduling hint; predictions are bit-for-bit identical pinned or
//!    not. The single-node fallback makes a
//!    1-CPU container take exactly the same code path shape as a 2-socket
//!    server, so CI proves the equivalence.
//! 2. **No new dependencies.** Topology parsing is plain `std::fs`; the
//!    affinity layer is ~30 lines of inline asm per architecture.
//! 3. **Testable without hardware.** The sysfs parser takes a root path,
//!    so tests feed it fixture directories; [`NumaTopology::from_nodes`]
//!    builds synthetic multi-node topologies for placement-policy tests.

mod affinity;
mod topology;

pub use affinity::{
    current_affinity, pin_current_thread_to, pin_current_thread_within, AffinityError, CpuSet,
};
pub use topology::{format_cpu_list, parse_cpu_list, NumaNode, NumaTopology, TopologySource};

/// True when this build can actually change thread affinity: the target
/// is Linux on x86_64/aarch64.
/// When false, [`pin_current_thread_to`] reports `Ok(false)` (no-op) and
/// [`current_affinity`] reports `None`.
pub const fn affinity_supported() -> bool {
    affinity::SUPPORTED
}
