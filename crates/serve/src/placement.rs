//! NUMA-aware shard placement policy.
//!
//! On a multi-socket machine every shard worker used to read one copy of
//! the model arenas, wherever the loading thread happened to first-touch
//! it — so half (or three quarters) of all table lookups paid the
//! cross-socket interconnect tax that tabularized inference exists to
//! avoid. [`ShardPlacement::NumaRoundRobin`] assigns shard workers
//! round-robin across NUMA nodes; each worker then, **in this order**:
//!
//! 1. pins itself to its node's cpuset, intersected with the thread's
//!    allowed CPUs (`dart-numa` raw `sched_setaffinity`; a reported no-op
//!    off Linux x86_64/aarch64, and never a widening of a taskset/cgroup
//!    restriction),
//! 2. obtains its node's model replica — the first *successfully pinned*
//!    worker on each node `deep_clone`s the model *while pinned*, so
//!    Linux's first-touch policy places the replica's arena pages
//!    node-locally; later workers on the same node share that replica via
//!    `Arc`. A worker whose pin did not take (unsupported OS, cgroup cpuset
//!    rejection) serves from the shared base model instead — an unpinned
//!    replica would spend memory without any locality guarantee — and
//!    reports it via `ServeStats::per_shard_pinned`,
//! 3. runs its serve loop, allocating its stream-state map and scratch
//!    buffers only now — also node-local by first touch.
//!
//! On a single-node topology (containers, laptops, the CI runner) the
//! plan still assigns every shard to node 0, but no replica is copied
//! (the original *is* node-local — there is only one node) and pinning to
//! the full cpuset changes nothing: behavior is bit-for-bit identical to
//! [`ShardPlacement::Disabled`], which is exactly what the placement
//! differential test proves.

use dart_numa::NumaTopology;

/// How shard workers are placed onto the machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPlacement {
    /// Today's behavior: the OS scheduler places shard threads freely and
    /// every shard shares the one model allocation. The default.
    #[default]
    Disabled,
    /// Round-robin shards across NUMA nodes with CPUs; pin each worker to
    /// its node's cpuset and serve from a node-local model replica
    /// (first-touch allocated by a pinned thread).
    NumaRoundRobin,
}

/// Resolve a placement policy against a topology: the node id each shard
/// is assigned to (`None` = unplaced, scheduler's choice).
///
/// Memory-only nodes (no CPUs) are skipped — a worker pinned to an empty
/// cpuset cannot run. If *no* node has CPUs (a degenerate parse), the
/// whole plan degrades to unplaced rather than panicking a worker.
pub(crate) fn plan_placement(
    topology: &NumaTopology,
    shards: usize,
    placement: ShardPlacement,
) -> Vec<Option<usize>> {
    match placement {
        ShardPlacement::Disabled => vec![None; shards],
        ShardPlacement::NumaRoundRobin => {
            let usable: Vec<usize> =
                topology.nodes().iter().filter(|n| !n.cpus.is_empty()).map(|n| n.id).collect();
            if usable.is_empty() {
                return vec![None; shards];
            }
            (0..shards).map(|s| Some(usable[s % usable.len()])).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_numa::NumaNode;

    fn node(id: usize, cpus: Vec<usize>) -> NumaNode {
        NumaNode { id, cpus, mem_total_bytes: None }
    }

    #[test]
    fn disabled_plans_nothing() {
        let topo = NumaTopology::from_nodes(vec![node(0, vec![0]), node(1, vec![1])]);
        assert_eq!(plan_placement(&topo, 3, ShardPlacement::Disabled), vec![None, None, None]);
    }

    #[test]
    fn round_robin_cycles_nodes() {
        let topo = NumaTopology::from_nodes(vec![node(0, vec![0, 1]), node(1, vec![2, 3])]);
        let plan = plan_placement(&topo, 5, ShardPlacement::NumaRoundRobin);
        assert_eq!(plan, vec![Some(0), Some(1), Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn single_node_assigns_everything_to_it() {
        let topo = NumaTopology::single_node_fallback();
        let plan = plan_placement(&topo, 4, ShardPlacement::NumaRoundRobin);
        assert_eq!(plan, vec![Some(0); 4]);
    }

    #[test]
    fn memory_only_nodes_are_skipped() {
        // Node 1 is a CPU-less memory expander; nobody gets pinned there.
        let topo = NumaTopology::from_nodes(vec![
            node(0, vec![0, 1]),
            node(1, vec![]),
            node(2, vec![2, 3]),
        ]);
        let plan = plan_placement(&topo, 4, ShardPlacement::NumaRoundRobin);
        assert_eq!(plan, vec![Some(0), Some(2), Some(0), Some(2)]);
    }

    #[test]
    fn all_memory_only_degrades_to_unplaced() {
        let topo = NumaTopology::from_nodes(vec![node(0, vec![]), node(1, vec![])]);
        assert_eq!(plan_placement(&topo, 2, ShardPlacement::NumaRoundRobin), vec![None, None]);
    }

    #[test]
    fn sparse_node_ids_round_robin_by_id() {
        // Offlined node 1: ids 0 and 2 remain.
        let topo = NumaTopology::from_nodes(vec![node(0, vec![0]), node(2, vec![1])]);
        let plan = plan_placement(&topo, 3, ShardPlacement::NumaRoundRobin);
        assert_eq!(plan, vec![Some(0), Some(2), Some(0)]);
    }
}
