//! Thread-scaling micro-benchmarks for the tile-parallel batch kernels.
//!
//! Runs the DART-sized linear-table batch query and batch encode under
//! explicit work-stealing pools of 1/2/4/8 threads
//! (`rayon::ThreadPool::install`) against the scalar row-at-a-time
//! sequential baseline. Every pooled variant is asserted bit-identical to
//! the sequential result before being timed — the pool may only change
//! *when* tiles run, never what they compute.
//!
//! Expected shape: parity at 1 thread (one-thread pools run inline, so the
//! only delta is the `install` bookkeeping), speedup at >1 threads on
//! multicore hosts. On a single-CPU container the >1-thread rows
//! time-slice one core and report parity; the bench still runs and prints
//! every row so CI exercises the full path.
//!
//! Every pooled encode row has a `_scalar` twin pinned to the scalar
//! argmin scan; the default rows run the dispatched scan (AVX2 where the
//! CPU has it). Bit-equality of the pair is asserted at setup, so the row
//! delta isolates vectorization at each thread count.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_pq::{EncoderKind, LinearTable, ProductQuantizer};
use rayon::ThreadPool;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = InitRng::new(seed);
    Matrix::from_fn(r, c, |_, _| rng.normal())
}

/// Pooled `LinearTable::query` at each thread count vs the scalar
/// row-at-a-time loop, batch 512 (64 samples x 8 tokens through one
/// kernel — the serving shape that actually has enough tiles to spread).
fn bench_parallel_linear(c: &mut Criterion) {
    // Fail fast on a malformed DART_NUM_THREADS, but not announce_threads():
    // that would instantiate the global pool, and this bench measures
    // explicit 1/2/4/8-thread pools only.
    dart_bench::env::validate_threads_env();
    println!("explicit pools of {THREAD_COUNTS:?} threads vs sequential scalar baseline");
    println!("simd dispatch: {}", dart_pq::simd::active_level());
    let (di, dout) = (32usize, 128usize);
    let train = rand_matrix(2000, di, 1);
    let w = rand_matrix(dout, di, 2);
    let b = vec![0.1f32; dout];
    let table = LinearTable::fit(&train, &w, &b, 2, 128, EncoderKind::Argmin, 7);
    let x = rand_matrix(512, di, 5);

    // Sequential scalar reference, also the bit-exactness anchor.
    let mut sequential = Matrix::zeros(x.rows(), dout);
    for r in 0..x.rows() {
        table.query_row_into(x.row(r), sequential.row_mut(r));
    }
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let pooled = pool.install(|| table.query(&x));
        assert_eq!(
            pooled.as_slice(),
            sequential.as_slice(),
            "{threads}-thread query diverged from scalar"
        );
    }

    let mut group = c.benchmark_group("parallel_linear_query_b512");
    group.sample_size(40);
    group.bench_function("sequential_scalar", |bench| {
        let mut out = Matrix::zeros(x.rows(), dout);
        bench.iter(|| {
            for r in 0..x.rows() {
                table.query_row_into(black_box(x.row(r)), out.row_mut(r));
            }
            black_box(out.as_slice().last().copied())
        })
    });
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        group.bench_function(format!("pool_{threads}_threads"), |bench| {
            bench.iter(|| pool.install(|| black_box(table.query(black_box(&x)))))
        });
    }
    group.finish();
}

/// Pooled tiled batch encode at each thread count vs the serial
/// subspace-major encode loop.
fn bench_parallel_encode(c: &mut Criterion) {
    let dim = 32usize;
    let train = rand_matrix(2000, dim, 11);
    let pq = ProductQuantizer::fit(&train, 2, 128, EncoderKind::Argmin, 13);
    let cs = pq.num_subspaces();
    let x = rand_matrix(512, dim, 17);

    let mut sequential = vec![0usize; x.rows() * cs];
    for (ci, &(lo, hi)) in pq.bounds().iter().enumerate() {
        for r in 0..x.rows() {
            sequential[r * cs + ci] = pq.encode_sub(ci, &x.row(r)[lo..hi]);
        }
    }
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let mut codes = vec![0usize; x.rows() * cs];
        pool.install(|| pq.encode_batch_into(&x, &mut codes));
        assert_eq!(codes, sequential, "{threads}-thread encode diverged from serial");
        let mut scalar_codes = vec![0usize; x.rows() * cs];
        pool.install(|| pq.encode_batch_scalar_into(&x, &mut scalar_codes));
        assert_eq!(scalar_codes, sequential, "{threads}-thread scalar encode diverged");
    }

    let mut group = c.benchmark_group("parallel_encode_b512");
    group.sample_size(40);
    group.bench_function("sequential_serial", |bench| {
        let mut codes = vec![0usize; x.rows() * cs];
        bench.iter(|| {
            for (ci, &(lo, hi)) in pq.bounds().iter().enumerate() {
                for r in 0..x.rows() {
                    codes[r * cs + ci] = pq.encode_sub(ci, &x.row(r)[lo..hi]);
                }
            }
            black_box(codes.last().copied())
        })
    });
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        group.bench_function(format!("pool_{threads}_threads"), |bench| {
            let mut codes = vec![0usize; x.rows() * cs];
            bench.iter(|| {
                pool.install(|| pq.encode_batch_into(black_box(&x), &mut codes));
                black_box(codes.last().copied())
            })
        });
        let pool = ThreadPool::new(threads);
        group.bench_function(format!("pool_{threads}_threads_scalar"), |bench| {
            let mut codes = vec![0usize; x.rows() * cs];
            bench.iter(|| {
                pool.install(|| pq.encode_batch_scalar_into(black_box(&x), &mut codes));
                black_box(codes.last().copied())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_linear, bench_parallel_encode);
criterion_main!(benches);
