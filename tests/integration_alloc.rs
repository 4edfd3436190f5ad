//! Heap allocations of one warm prediction, counted.
//!
//! The kernels themselves allocate nothing but scratch — a linear kernel
//! encodes and aggregates in one pass with no codes buffer, attention
//! heads read their codes and V columns in place and write the concat
//! matrix in place, and the output projection pools each window inside
//! its tile — so what one `forward_probs` still allocates is the forward's
//! own plumbing: a fresh `Matrix` per stage, the Q / K column slices the
//! encodes read, the attention scratch and the pooled tile's rows. The
//! ceilings below are that count today; it is the baseline a forward-level
//! workspace (ROADMAP item 1) drives to zero, and a kernel that starts
//! allocating again trips them first.
//!
//! Its own test binary because the counter is the process's
//! `#[global_allocator]`. It counts per thread, and a one-thread
//! `ThreadPool::install` runs every kernel tile inline on the caller
//! (`DART_NUM_THREADS=1` semantics), so each test sees its own calls only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dart::core::config::{PredictorConfig, TabularConfig};
use dart::core::tabularize::tabularize;
use dart::core::TabularModel;
use dart::nn::init::InitRng;
use dart::nn::matrix::Matrix;
use dart::nn::model::AccessPredictor;
use dart::pq::EncoderKind;
use dart::prefetch::DartPrefetcher;
use dart::sim::{LlcAccess, Prefetcher};
use dart::trace::PreprocessConfig;
use rayon::ThreadPool;

struct Counting;

thread_local! {
    /// `alloc` + `realloc` calls made by this thread (const-initialised and
    /// without a destructor, so reading it never allocates).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged, so `System`'s
// guarantees are this allocator's; the counter is a plain thread-local
// integer that no allocation path reads.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, which the caller upholds, is
    // `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` through `alloc` / `realloc` here
    // with this `layout`, as `GlobalAlloc::dealloc` requires of the caller.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract, which the caller upholds,
    // is `System.realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread, every kernel tile inline.
fn allocations_of<R>(f: impl FnOnce() -> R) -> u64 {
    ThreadPool::new(1).install(|| {
        let before = ALLOCATIONS.with(Cell::get);
        let result = f();
        let made = ALLOCATIONS.with(Cell::get) - before;
        drop(result);
        made
    })
}

/// The paper's DART shape — one block, two heads, a two-kernel FFN, hash-tree
/// encoders — untrained: the count depends on the structure, not the weights.
fn dart_model(pre: &PreprocessConfig) -> TabularModel {
    let variant = PredictorConfig::dart();
    let cfg = variant.to_model_config(pre.input_dim(), pre.output_dim(), pre.seq_len);
    let student = AccessPredictor::new(cfg, 7).unwrap();
    let mut rng = InitRng::new(8);
    let fit = Matrix::from_fn(24 * pre.seq_len, pre.input_dim(), |_, _| rng.next_f32());
    let tab = TabularConfig::from_predictor(&variant).without_fine_tuning();
    assert_eq!(tab.encoder, EncoderKind::HashTree);
    tabularize(&student, &fit, &tab).0
}

#[test]
fn a_warm_prediction_allocates_what_the_forward_plumbing_does() {
    let pre = PreprocessConfig::default();
    let model = dart_model(&pre);
    let mut rng = InitRng::new(9);
    let x = Matrix::from_fn(pre.seq_len, pre.input_dim(), |_, _| rng.next_f32());
    let tokens = model.encode_tokens(&x);
    let _warm = (model.forward_probs(&x), model.predict_tokens(&tokens));

    // 41 and 25 while every linear kernel filled a codes buffer first; 35
    // and 21 while each head copied its codes, V columns and output and
    // the output projection materialised every token's row.
    let forward = allocations_of(|| model.forward_probs(&x));
    assert!(forward <= 23, "forward_probs made {forward} allocations");
    let mix = allocations_of(|| model.predict_tokens(&tokens));
    assert!(mix <= 13, "predict_tokens made {mix} allocations");
    assert!(mix < forward, "the window half ({mix}) is part of the whole ({forward})");
}

/// The paper loop's per-access path: one warm `DartPrefetcher::on_access`
/// is one step of the stream engine — one feature row, `encode_tokens`,
/// the ring, `predict_tokens` on the window, the emission rule — and
/// allocates what those two forward halves and the emitted list do, with
/// the engine's staging reused. Whether bits pass the threshold or not.
#[test]
fn a_warm_paper_loop_access_allocates_what_the_forward_halves_do() {
    let pre = PreprocessConfig::default();
    let model = dart_model(&pre);
    let access = |i: u64| {
        let block = 1_000 + 3 * i + i % 5;
        LlcAccess {
            seq: i as usize,
            instr_id: 4 * i,
            pc: 0x400100,
            addr: block << 6,
            block,
            hit: false,
        }
    };
    for threshold in [0.0, 0.5] {
        let mut pf = DartPrefetcher::with_latency("DART", model.clone(), pre, 0, threshold, 4);
        let warm = pre.seq_len as u64 + 1;
        for i in 0..warm {
            pf.on_access(&access(i));
        }
        let made = allocations_of(|| pf.on_access(&access(warm)));
        assert!(made <= 24, "on_access at threshold {threshold} made {made} allocations");
    }
}

#[test]
fn a_linear_query_into_a_caller_buffer_allocates_nothing() {
    let pre = PreprocessConfig::default();
    let model = dart_model(&pre);
    let mut rng = InitRng::new(10);
    // Past one aggregate tile, off a lane block: 2 tiles, a tail in each loop.
    let x = Matrix::from_fn(37, pre.input_dim(), |_, _| rng.next_f32());
    let mut out = Matrix::zeros(37, model.input_linear.out_dim());
    model.input_linear.query_batch_into(&x, &mut out);
    let made = allocations_of(|| model.input_linear.query_batch_into(&x, &mut out));
    assert_eq!(made, 0);
}
