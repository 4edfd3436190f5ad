//! Per-layer probes: each times calls into one layer's public functions
//! from outside. The staged replay walks `TabularModel::forward_probs`
//! stage by stage through the model's public fields with a span around
//! every stage; the stand-alone probes replay one function over the
//! workload's own requests.

use std::hint::black_box;
use std::time::Instant;

use dart_core::config::PredictorConfig;
use dart_core::configurator::{model_latency, model_storage_bytes, ShapeParams};
use dart_core::tabular_model::FfnTables;
use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_pq::LinearTable;
use dart_serve::{PrefetchRequest, StreamLru, StreamRouter};
use dart_trace::PreprocessConfig;

use crate::inputs::Streams;
use crate::report::Outcome;
use crate::spans::SpanLog;

/// Span names of the staged replay, interned once per log.
pub struct StageNames {
    predict: u16,
    input_linear: u16,
    input_ln: u16,
    ln1: u16,
    qkv: u16,
    head: u16,
    out: u16,
    ln2: u16,
    ffn: u16,
    output_linear: u16,
    sigmoid: u16,
}

impl StageNames {
    /// Intern the stage names in `log`.
    pub fn new(log: &mut SpanLog) -> StageNames {
        StageNames {
            predict: log.name("core.predict"),
            input_linear: log.name("pq.linear.input"),
            input_ln: log.name("core.layernorm.input"),
            ln1: log.name("core.layernorm.ln1"),
            qkv: log.name("pq.linear.qkv"),
            head: log.name("pq.attention.head"),
            out: log.name("pq.linear.out"),
            ln2: log.name("core.layernorm.ln2"),
            ffn: log.name("pq.ffn"),
            output_linear: log.name("pq.linear.output"),
            sigmoid: log.name("pq.sigmoid"),
        }
    }
}

/// `TabularModel::forward_probs`, stage by stage, one span per stage
/// under a `core.predict` span whose self time is the glue between stages
/// (column slices, head concat, residual adds, pooling). Must stay the
/// mirror of `TabularModel::forward_logits` and
/// `TabularEncoderBlock::forward`; callers assert the result is bit-equal
/// to `predict_batch`.
pub fn staged_forward(
    model: &TabularModel,
    x: &Matrix,
    log: &mut SpanLog,
    names: &StageNames,
    id: u64,
) -> Matrix {
    log.enter(names.predict, id);
    let dim = model.config.dim;
    let mut h = log.span(names.input_linear, id, || model.input_linear.query(x));
    h = log.span(names.input_ln, id, || model.input_ln.apply(&h));
    for blk in &model.blocks {
        let heads = blk.heads.len();
        let dh = dim / heads;
        let a = log.span(names.ln1, id, || blk.ln1.apply(&h));
        let qkv = log.span(names.qkv, id, || blk.qkv.query(&a));
        let q = qkv.slice_cols(0, dim);
        let k = qkv.slice_cols(dim, 2 * dim);
        let v = qkv.slice_cols(2 * dim, 3 * dim);
        let mut concat = Matrix::zeros(h.rows(), dim);
        for (hi, head) in blk.heads.iter().enumerate() {
            let (lo, hi_col) = (hi * dh, (hi + 1) * dh);
            let (qs, ks, vs) =
                (q.slice_cols(lo, hi_col), k.slice_cols(lo, hi_col), v.slice_cols(lo, hi_col));
            let y = log.span(names.head, id, || head.query_batch(&qs, &ks, &vs));
            for r in 0..h.rows() {
                concat.row_mut(r)[lo..hi_col].copy_from_slice(y.row(r));
            }
        }
        let x1 = h.add(&log.span(names.out, id, || blk.out.query(&concat)));
        let f = log.span(names.ln2, id, || blk.ln2.apply(&x1));
        h = x1.add(&log.span(names.ffn, id, || blk.ffn.query(&f)));
    }
    let per_token = log.span(names.output_linear, id, || model.output_linear.query(&h));
    let t = model.config.seq_len;
    let batch = per_token.rows() / t;
    let mut out = Matrix::zeros(batch, model.config.output_dim);
    for n in 0..batch {
        let orow = out.row_mut(n);
        for step in 0..t {
            for (o, &v) in orow.iter_mut().zip(per_token.row(n * t + step)) {
                *o += v;
            }
        }
        let inv = 1.0 / t as f32;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
    log.span(names.sigmoid, id, || model.sigmoid.apply(out.as_mut_slice()));
    log.exit();
    out
}

/// Whether two matrices hold the same bits.
pub fn bit_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every linear table of the model with the input it sees when the model
/// is fed `x` (the stage inputs are recomputed with the model's own
/// stages, so each table is probed on its real input distribution).
fn linear_tables_with_inputs<'m>(
    model: &'m TabularModel,
    x: &Matrix,
) -> Vec<(&'m LinearTable, Matrix)> {
    let dim = model.config.dim;
    let mut out = Vec::new();
    let mut h = model.input_linear.query(x);
    out.push((&model.input_linear, x.clone()));
    h = model.input_ln.apply(&h);
    for blk in &model.blocks {
        let a = blk.ln1.apply(&h);
        let qkv = blk.qkv.query(&a);
        out.push((&blk.qkv, a));
        let (q, k, v) = (
            qkv.slice_cols(0, dim),
            qkv.slice_cols(dim, 2 * dim),
            qkv.slice_cols(2 * dim, 3 * dim),
        );
        let heads = blk.heads.len();
        let dh = dim / heads;
        let parts: Vec<Matrix> = blk
            .heads
            .iter()
            .enumerate()
            .map(|(i, head)| {
                let (lo, hi) = (i * dh, (i + 1) * dh);
                head.query_batch(
                    &q.slice_cols(lo, hi),
                    &k.slice_cols(lo, hi),
                    &v.slice_cols(lo, hi),
                )
            })
            .collect();
        let concat = Matrix::hstack(&parts);
        let x1 = h.add(&blk.out.query(&concat));
        out.push((&blk.out, concat));
        let f = blk.ln2.apply(&x1);
        if let FfnTables::TwoKernel { hidden, out: ffn_out } = &blk.ffn {
            let mid = hidden.query(&f);
            out.push((hidden, f.clone()));
            out.push((ffn_out, mid));
        }
        h = x1.add(&blk.ffn.query(&f));
    }
    out.push((&model.output_linear, h));
    out
}

/// Time `f` for about `budget_s` seconds (at least `min_iters` calls) and
/// return mean nanoseconds per call.
pub fn mean_ns(budget_s: f64, min_iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut iters = 0usize;
    while iters < min_iters || t0.elapsed().as_secs_f64() < budget_s {
        f();
        iters += 1;
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Bytes of table and codebook entries one prediction reads, computed
/// from the model's dimensions (not measured): every argmin encode scans
/// its whole codebook, every aggregation gathers one table row per
/// subspace, and each attention head gathers from its QK and QKV tables.
pub fn gather_bytes_per_sample(model: &TabularModel) -> f64 {
    let t = model.config.seq_len as f64;
    let linear = |table: &LinearTable| -> f64 {
        let scan = (table.num_protos() * table.in_dim()) as f64;
        let gather = (table.num_subspaces() * table.out_dim()) as f64;
        4.0 * t * (scan + gather)
    };
    let mut bytes = linear(&model.input_linear) + linear(&model.output_linear);
    for blk in &model.blocks {
        bytes += linear(&blk.qkv) + linear(&blk.out);
        if let FfnTables::TwoKernel { hidden, out } = &blk.ffn {
            bytes += linear(hidden) + linear(out);
        }
        let c = blk.qkv.num_subspaces() as f64;
        let k = blk.qkv.num_protos() as f64;
        for head in &blk.heads {
            let dk = head.head_dim() as f64;
            // The Q-row, K-row and V-column encodes scan K prototypes over
            // T*D_k values each, the Q̂K^T-row encode over T*T; the QK pass
            // gathers T entries and the QKV pass D_k entries per (row,
            // subspace).
            let scans = k * (3.0 * t * dk + t * t);
            let gathers = t * c * (t + dk);
            bytes += 4.0 * (scans + gathers);
        }
    }
    bytes
}

/// The batch-1 and batch-64 names of the metrics [`model_layers`] fills:
/// encode, aggregate, attention, FFN, LayerNorm, glue, whole model.
const B1_NAMES: [&str; 7] = [
    "pq.encode.ns_per_row.b1",
    "pq.aggregate.ns_per_row.b1",
    "pq.attention.ns_per_sample.b1",
    "pq.ffn.ns_per_row.b1",
    "core.layernorm.ns_per_row.b1",
    "core.glue.ns_per_sample.b1",
    "core.predict.ns_per_sample.b1",
];
const B64_NAMES: [&str; 7] = [
    "pq.encode.ns_per_row.b64",
    "pq.aggregate.ns_per_row.b64",
    "pq.attention.ns_per_sample.b64",
    "pq.ffn.ns_per_row.b64",
    "core.layernorm.ns_per_row.b64",
    "core.glue.ns_per_sample.b64",
    "core.predict.ns_per_sample.b64",
];

/// What [`model_layers`] measured, per sample.
pub struct LayerTimes {
    /// The staged replay: sum of every stage's self time.
    pub staged_ns: f64,
    /// `predict_batch` on the same inputs in the same loop, no spans.
    pub plain_ns: f64,
}

/// The staged replay and the encode probes on `model`, fed `inputs` (each
/// `batch` stacked samples), for about `budget_s` seconds. Fills the
/// `pq.*` and `core.*` metrics of batch suffix `b1` or `b64`.
///
/// One loop iteration makes an untraced `predict_batch` call, the staged
/// replay, and one encode of every linear table's input: interference on
/// this host comes in bursts of seconds, so numbers that are subtracted
/// from or divided by each other are taken side by side, not in phases.
pub fn model_layers(
    model: &TabularModel,
    variant: &PredictorConfig,
    inputs: &[Matrix],
    batch: usize,
    budget_s: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> LayerTimes {
    assert!(batch == 1 || batch == 64, "layer metrics exist for batch 1 and 64");
    let names = StageNames::new(log);
    let (plain_name, encode_name) = (log.name("untraced.predict"), log.name("pq.encode.probe"));
    let t = model.config.seq_len;

    // Bit-equality of the replay, on every distinct input, before timing.
    let mut equal = true;
    let mut scratch = SpanLog::new(Instant::now());
    let scratch_names = StageNames::new(&mut scratch);
    for x in inputs {
        let staged = staged_forward(model, x, &mut scratch, &scratch_names, 0);
        equal &= bit_equal(&staged, &model.predict_batch(x));
    }
    out.check(
        "staged_replay_bit_equal",
        equal,
        format!("{} inputs of {batch} samples vs predict_batch", inputs.len()),
    );

    // Each linear table's quantizer is probed on that table's real input.
    let tables = linear_tables_with_inputs(model, &inputs[0]);
    let mut codes: Vec<Vec<usize>> = tables
        .iter()
        .map(|(table, input)| vec![0usize; input.rows() * table.quantizer().num_subspaces()])
        .collect();

    let before = log.totals();
    let t0 = Instant::now();
    let mut calls = 0usize;
    while calls < 8 || t0.elapsed().as_secs_f64() < budget_s {
        let (x, id) = (&inputs[calls % inputs.len()], calls as u64);
        log.span(plain_name, id, || black_box(model.predict_batch(black_box(x))));
        black_box(staged_forward(model, x, log, &names, id));
        log.enter(encode_name, id);
        for ((table, input), codes) in tables.iter().zip(codes.iter_mut()) {
            table.quantizer().encode_batch_into(black_box(input), codes);
        }
        log.exit();
        black_box(&codes);
        calls += 1;
    }
    let after = log.totals();
    let delta = |name: &str, pick: fn(&crate::spans::NameTotals) -> u64| -> f64 {
        let a = after.get(name).map_or(0, pick);
        let b = before.get(name).map_or(0, pick);
        (a - b) as f64
    };
    let total = |name: &str| delta(name, |t| t.total_ns);
    let samples = (calls * batch) as f64;
    let rows = samples * t as f64;
    let layers = model.blocks.len() as f64;

    let linear_ns = total("pq.linear.input")
        + total("pq.linear.qkv")
        + total("pq.linear.out")
        + total("pq.linear.output");
    let ffn_ns = total("pq.ffn");
    let attention_ns = total("pq.attention.head");
    let ln_ns =
        total("core.layernorm.input") + total("core.layernorm.ln1") + total("core.layernorm.ln2");
    let sigmoid_ns = total("pq.sigmoid");
    let glue_ns = delta("core.predict", |t| t.self_ns);
    let predict_ns = total("core.predict");
    let encode_ns = total("pq.encode.probe");

    let table_rows = tables.len() as f64 * rows;
    let encode_per_row = encode_ns / table_rows;
    let query_per_row = (linear_ns + ffn_ns) / table_rows;

    let [enc, agg, attn, ffn, ln, glue, pred] = if batch == 1 { B1_NAMES } else { B64_NAMES };
    out.set(enc, encode_per_row);
    // Derived: a table query is encode + aggregate and only the encode can
    // be called on its own, so aggregate = query - encode.
    out.set(agg, (query_per_row - encode_per_row).max(0.0));
    out.set(attn, attention_ns / samples);
    out.set(ffn, ffn_ns / rows / layers.max(1.0));
    out.set(ln, ln_ns / (rows * (1.0 + 2.0 * layers)));
    out.set(glue, glue_ns / samples);
    out.set(pred, predict_ns / samples);
    out.set("pq.sigmoid.ns_per_sample", sigmoid_ns / samples);
    if batch == 1 {
        out.set("pq.encode_share.b1", encode_ns / predict_ns);
    }
    out.set("pq.gather_bytes_per_sample", gather_bytes_per_sample(model));
    out.set("core.eq22_cycles", model_latency(variant) as f64);
    let shape = ShapeParams { seq_len: t, output_dim: model.config.output_dim };
    out.set("core.eq23_bytes", model_storage_bytes(variant, &shape) as f64);
    out.note(
        "staged.self_time_sum_ns_per_sample",
        format!(
            "{:.1} (linear {:.1} + ffn {:.1} + attention {:.1} + layernorm {:.1} + sigmoid {:.1} \
             + glue {:.1})",
            predict_ns / samples,
            linear_ns / samples,
            ffn_ns / samples,
            attention_ns / samples,
            ln_ns / samples,
            sigmoid_ns / samples,
            glue_ns / samples
        ),
    );
    LayerTimes { staged_ns: predict_ns / samples, plain_ns: total("untraced.predict") / samples }
}

/// The per-layer probes of a service workload: its tables at batch 64 on
/// one thread — shard workers run their kernels inline
/// (`pool_threads: Some(1)`) — and the per-request stages over its own
/// streams' requests.
pub fn service_layers(
    model: &TabularModel,
    variant: &PredictorConfig,
    pre: &PreprocessConfig,
    streams: &Streams,
    budget_s: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    let windows = streams.windows(pre, 256);
    let rows = 64 * pre.seq_len;
    let inputs: Vec<Matrix> =
        (0..4).map(|c| windows.slice_rows(c * rows, (c + 1) * rows)).collect();
    rayon::ThreadPool::new(1)
        .install(|| model_layers(model, variant, &inputs, 64, budget_s, log, out));
    let probs = model.forward_probs(&windows.slice_rows(0, pre.seq_len));
    request_layers(pre, &streams.sample_requests(4096), probs.row(0), out);
}

/// Stand-alone replays of the per-request stages over the workload's own
/// requests: feature encoding and bitmap decoding (`dart-trace`), routing
/// and stream-state upkeep (`dart-serve`), and frame coding (`dart-net`).
pub fn request_layers(
    pre: &PreprocessConfig,
    reqs: &[PrefetchRequest],
    probs: &[f32],
    out: &mut Outcome,
) {
    assert!(!reqs.is_empty() && probs.len() == pre.output_dim());
    let budget = 0.05;
    let n = reqs.len();

    let mut row = vec![0.0f32; pre.input_dim()];
    let mut i = 0usize;
    out.set(
        "trace.features.ns_per_token",
        mean_ns(budget, 1000, || {
            let r = &reqs[i % n];
            pre.write_token_features(black_box(r.block()), r.pc, &mut row);
            black_box(&row);
            i += 1;
        }),
    );

    let mut candidates = Vec::new();
    let mut i = 0usize;
    out.set(
        "trace.decode_bitmap.ns_per_call",
        mean_ns(budget, 1000, || {
            let anchor = reqs[i % n].block();
            black_box(pre.decode_bitmap_into(black_box(probs), anchor, 0.5, 4, &mut candidates));
            i += 1;
        }),
    );

    let router = StreamRouter::new(2);
    let mut i = 0usize;
    out.set(
        "serve.router.ns_per_req",
        mean_ns(budget, 1000, || {
            black_box(router.shard_of(black_box(reqs[i % n].stream_id)));
            i += 1;
        }),
    );

    // What a shard worker does per warm request before the kernels run:
    // find the stream, push the access, write its window's features.
    let t = pre.seq_len;
    let mut lru = StreamLru::new(4096);
    let mut feats = Matrix::zeros(t, pre.input_dim());
    for r in reqs.iter().cycle().take(n.max(t * 256)) {
        lru.entry(r.stream_id, t).push(r.block(), r.pc);
    }
    let mut i = 0usize;
    out.set(
        "serve.features.ns_per_req",
        mean_ns(budget, 1000, || {
            let r = &reqs[i % n];
            let state = lru.entry(r.stream_id, t);
            state.push(r.block(), r.pc);
            if state.warm() {
                state.write_features_into(pre, &mut feats, 0);
            }
            black_box(&feats);
            i += 1;
        }),
    );

    wire_layers(reqs, out);
}

/// Frame decode and response encode over 64k frames built from `reqs`.
fn wire_layers(reqs: &[PrefetchRequest], out: &mut Outcome) {
    use dart_net::wire::{
        encode_request, encode_response, FrameDecoder, RequestFrame, ResponseFrame,
    };
    const FRAMES: usize = 65_536;
    let mut bytes = Vec::with_capacity(FRAMES * dart_net::wire::REQUEST_LEN);
    for r in reqs.iter().cycle().take(FRAMES) {
        let frame = RequestFrame { stream: r.stream_id as u32, pc: r.pc, addr: r.addr };
        encode_request(&frame, &mut bytes);
    }
    // Fed in 16 KiB reads, as an IO thread would see them.
    let t0 = Instant::now();
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    for chunk in bytes.chunks(16 * 1024) {
        decoder.extend(chunk);
        while let Ok(Some(frame)) = decoder.next() {
            black_box(&frame);
            decoded += 1;
        }
    }
    out.set("net.wire.decode.ns_per_frame", t0.elapsed().as_nanos() as f64 / FRAMES as f64);
    out.check("wire_decode_count", decoded == FRAMES, format!("{decoded} of {FRAMES} frames"));

    let responses: Vec<ResponseFrame> = reqs
        .iter()
        .cycle()
        .take(1024)
        .enumerate()
        .map(|(i, r)| ResponseFrame {
            stream: r.stream_id as u32,
            seq: i as u64,
            latency_ns: 1000,
            failed: false,
            blocks: (1..=4).map(|d| r.block() + d).collect(),
        })
        .collect();
    let mut buf = Vec::with_capacity(1 << 16);
    let t0 = Instant::now();
    for i in 0..FRAMES {
        if buf.len() > (1 << 15) {
            buf.clear();
        }
        encode_response(black_box(&responses[i % responses.len()]), &mut buf);
    }
    black_box(&buf);
    out.set(
        "net.wire.encode_response.ns_per_frame",
        t0.elapsed().as_nanos() as f64 / FRAMES as f64,
    );
}
