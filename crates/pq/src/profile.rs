//! Per-kernel invocation/row counters.
//!
//! Each hot kernel calls [`profile_kernel`] once per batch with its name
//! and the number of rows it processed — except the linear kernel
//! (`linear_table::aggregate_codes_batch`), which encodes and aggregates
//! in one fused pass and so reports each batch under two names from one
//! function, `encode_batch` and `aggregate_codes`: it does both kernels'
//! work, and the `/metrics` series keep the meaning they had while a
//! separate `encode_batch_into` call made the first report (rows encoded,
//! rows aggregated). The counts land in the
//! process-wide [`dart_telemetry::global()`] registry as two counter
//! families (two relaxed atomic adds per batch call):
//!
//! * `dart_pq_kernel_invocations_total{kernel="..."}` — batch calls,
//! * `dart_pq_kernel_rows_total{kernel="..."}` — rows processed.
//!
//! Kernel names are a closed set so the cells can live in a fixed-size
//! array resolved without hashing on the hot path: `encode_batch`
//! (quantizer encoding), `aggregate_codes` (linear-table aggregation),
//! `attention_query` (attention QKV lookups).

use std::sync::{Arc, OnceLock};

use dart_telemetry::Counter;

/// Record one kernel invocation that processed `rows` rows.
///
/// `name` must be one of the catalog names above; unknown names are
/// ignored rather than panicking so the hook can never take down a
/// kernel.
pub fn profile_kernel(name: &'static str, rows: u64) {
    let Some(i) = KERNELS.iter().position(|k| *k == name) else { return };
    let c = cells();
    c.invocations[i].inc();
    c.rows[i].add(rows);
}

/// The closed kernel-name catalog, in exposition order.
const KERNELS: [&str; 3] = ["encode_batch", "aggregate_codes", "attention_query"];

struct Cells {
    invocations: [Arc<Counter>; 3],
    rows: [Arc<Counter>; 3],
}

fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = dart_telemetry::global();
        Cells {
            invocations: KERNELS.map(|k| {
                reg.counter(
                    "dart_pq_kernel_invocations_total",
                    "Batched tabularization-kernel calls.",
                    &[("kernel", k)],
                )
            }),
            rows: KERNELS.map(|k| {
                reg.counter(
                    "dart_pq_kernel_rows_total",
                    "Rows processed by tabularization kernels.",
                    &[("kernel", k)],
                )
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_counters_land_in_the_global_registry() {
        // Other tests in this binary drive kernels through the same
        // process-global registry concurrently, so assert on deltas of
        // the shared cells, not absolute rendered values.
        let reg = dart_telemetry::global();
        let rows = reg.counter(
            "dart_pq_kernel_rows_total",
            "Rows processed by tabularization kernels.",
            &[("kernel", "encode_batch")],
        );
        let before = rows.get();
        profile_kernel("encode_batch", 5);
        profile_kernel("encode_batch", 3);
        profile_kernel("not_a_kernel", 99);
        assert!(rows.get() >= before + 8);
        let doc = reg.render();
        assert!(doc.contains("# TYPE dart_pq_kernel_invocations_total counter"));
        assert!(doc.contains("dart_pq_kernel_rows_total{kernel=\"encode_batch\"}"));
        assert!(!doc.contains("not_a_kernel"));
    }
}
