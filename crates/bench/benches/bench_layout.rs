//! Layout micro-benchmarks: the flat code-major `TableArena` tiled kernels
//! vs. the seed's nested `Vec<Matrix>` storage with per-row aggregation.
//!
//! The seed-shape reference is reconstructed *from* the fitted flat table
//! (same prototypes, same entries, rebuilt as one `Matrix` per subspace)
//! and runs the seed's exact query algorithm: serial subspace-major encode
//! over the whole batch, then row-parallel aggregation that walks all `C`
//! separate sub-table allocations per row. Both paths produce bit-for-bit
//! identical outputs (asserted at setup), so the benchmark isolates pure
//! memory-layout and tiling effects at the serving batch size (64).
//!
//! The encode group also carries a simd-vs-scalar pair: `flat_tiled` runs
//! the dispatched argmin scan (AVX2 where the CPU has it, scalar otherwise
//! or under `DART_SIMD=off` — the printed banner says which) and
//! `flat_tiled_scalar` pins the same tiled encode to the scalar scan.
//! Bit-equality of the two is asserted at setup, so the delta is pure
//! vectorization. The aggregation loops have one implementation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_pq::{EncoderKind, LinearTable, ProductQuantizer};
use rayon::prelude::*;

fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = InitRng::new(seed);
    Matrix::from_fn(r, c, |_, _| rng.normal())
}

/// The seed's storage shape: one `Matrix` allocation per subspace, queried
/// with the seed's two-phase batch kernel (serial whole-batch encode, then
/// per-row aggregation across all sub-tables).
struct SeedShapeTable {
    pq: ProductQuantizer,
    tables: Vec<Matrix>,
    out_dim: usize,
}

impl SeedShapeTable {
    fn from_flat(table: &LinearTable) -> SeedShapeTable {
        let arena = table.table_arena();
        let tables = (0..arena.num_subspaces()).map(|c| arena.subtable_to_matrix(c)).collect();
        SeedShapeTable { pq: table.quantizer().clone(), tables, out_dim: table.out_dim() }
    }

    fn query(&self, x: &Matrix) -> Matrix {
        let c = self.pq.num_subspaces();
        let mut codes = vec![0usize; x.rows() * c];
        // Seed encode: subspace-major over the entire batch, serial.
        for (ci, &(lo, hi)) in self.pq.bounds().iter().enumerate() {
            for r in 0..x.rows() {
                codes[r * c + ci] = self.pq.encode_sub(ci, &x.row(r)[lo..hi]);
            }
        }
        // Seed aggregate: one output row at a time across all sub-tables.
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        let out_dim = self.out_dim;
        out.as_mut_slice().par_chunks_mut(out_dim).enumerate().for_each(|(r, orow)| {
            orow.fill(0.0);
            for (ci, table) in self.tables.iter().enumerate() {
                let trow = table.row(codes[r * c + ci]);
                for (o, &t) in orow.iter_mut().zip(trow) {
                    *o += t;
                }
            }
        });
        out
    }
}

/// Flat tiled vs seed-shape linear kernel at the serving batch size.
fn bench_layout_linear(c: &mut Criterion) {
    // Fail fast on a malformed DART_NUM_THREADS and report the effective
    // kernel thread count: the tiled kernels below run on that pool, so a
    // silently-defaulted value would mislabel every number printed.
    dart_bench::announce_threads();
    println!("simd dispatch: {}", dart_pq::simd::active_level());
    // DART-sized linear kernel: D_I=32, D_O=128, K=128, C=2; batch = 64
    // pooled rows (one serve coalesced drain) and 512 rows (64 samples of
    // an 8-token sequence through one kernel).
    let (di, dout) = (32usize, 128usize);
    let train = rand_matrix(2000, di, 1);
    let w = rand_matrix(dout, di, 2);
    let b = vec![0.1f32; dout];

    for (enc_name, encoder) in
        [("argmin", EncoderKind::Argmin), ("hashtree", EncoderKind::HashTree)]
    {
        let table = LinearTable::fit(&train, &w, &b, 2, 128, encoder, 7);
        let seed_shape = SeedShapeTable::from_flat(&table);
        for rows in [64usize, 512] {
            let x = rand_matrix(rows, di, 3 + rows as u64);
            // The two layouts must agree bit for bit before being timed.
            assert_eq!(
                table.query(&x).as_slice(),
                seed_shape.query(&x).as_slice(),
                "layouts diverged"
            );
            let mut group = c.benchmark_group(format!("layout_linear_{enc_name}_b{rows}"));
            group.sample_size(40);
            group.bench_function("flat_tiled", |bench| {
                bench.iter(|| black_box(table.query(black_box(&x))))
            });
            group.bench_function("seed_nested", |bench| {
                bench.iter(|| black_box(seed_shape.query(black_box(&x))))
            });
            group.finish();
        }
    }
}

/// Encode-only comparison: tiled parallel batch encode vs the seed's
/// serial subspace-major loop.
fn bench_layout_encode(c: &mut Criterion) {
    let dim = 32usize;
    let train = rand_matrix(2000, dim, 11);
    for (enc_name, encoder) in
        [("argmin", EncoderKind::Argmin), ("hashtree", EncoderKind::HashTree)]
    {
        let pq = ProductQuantizer::fit(&train, 2, 128, encoder, 13);
        let cs = pq.num_subspaces();
        let x = rand_matrix(512, dim, 17);
        let mut group = c.benchmark_group(format!("layout_encode_{enc_name}_b512"));
        group.sample_size(40);
        // Dispatched and scalar-tile encodes must agree before timing.
        let mut simd_codes = vec![0usize; x.rows() * cs];
        let mut scalar_codes = vec![0usize; x.rows() * cs];
        pq.encode_batch_into(&x, &mut simd_codes);
        pq.encode_batch_scalar_into(&x, &mut scalar_codes);
        assert_eq!(simd_codes, scalar_codes, "simd and scalar encodes diverged");
        group.bench_function("flat_tiled", |bench| {
            let mut codes = vec![0usize; x.rows() * cs];
            bench.iter(|| {
                pq.encode_batch_into(black_box(&x), &mut codes);
                black_box(codes.last().copied())
            })
        });
        group.bench_function("flat_tiled_scalar", |bench| {
            let mut codes = vec![0usize; x.rows() * cs];
            bench.iter(|| {
                pq.encode_batch_scalar_into(black_box(&x), &mut codes);
                black_box(codes.last().copied())
            })
        });
        group.bench_function("seed_serial", |bench| {
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
        group.finish();
    }
}

criterion_group!(benches, bench_layout_linear, bench_layout_encode);
criterion_main!(benches);
