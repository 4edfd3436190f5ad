//! `BLOCK_BITS` is defined once, in `dart-trace`, and re-exported by
//! every crate that slices addresses into cache blocks. These constants
//! drifting apart would silently misalign the serving runtime's block
//! addresses against the trace preprocessor's — the exact bug class the
//! hoist exists to prevent — so this test pins all three to one value.

#[test]
fn block_bits_is_one_constant_across_the_workspace() {
    assert_eq!(dart::core::BLOCK_BITS, dart::trace::record::BLOCK_BITS);
    assert_eq!(dart::core::BLOCK_BITS, dart::serve::request::BLOCK_BITS);
    // The wire protocol and simulator assume 64-byte blocks; changing
    // this is a protocol break, not a tweak.
    assert_eq!(dart::core::BLOCK_BITS, 6);
}

/// The two re-exports must agree not just in value but in behavior:
/// block-of-address computed through the trace record and the serve
/// request paths lands on the same block for the same address.
#[test]
fn both_address_slicers_agree() {
    for addr in [0u64, 63, 64, 4095, 1 << 20, u64::MAX] {
        let as_trace = dart::trace::TraceRecord { instr_id: 0, pc: 0, addr }.block();
        let as_serve = dart::serve::PrefetchRequest { stream_id: 0, pc: 0, addr }.block();
        assert_eq!(as_trace, as_serve, "addr {addr:#x} sliced differently");
    }
}
