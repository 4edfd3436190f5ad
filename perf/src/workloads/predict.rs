//! `predict_b1` / `predict_b64`: the DART tables called directly, one
//! thread, no serving layer — per-access inference latency (the paper's
//! headline) and the tiled batch path serve's `max_batch` exercises.

use std::hint::black_box;
use std::time::Instant;

use dart_core::config::PredictorConfig;
use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig, SequenceModel};
use dart_trace::PreprocessConfig;

use crate::inputs::{untrained_tables, Streams};
use crate::probes::{bit_equal, mean_ns, model_layers, request_layers};
use crate::report::{timed, timed_setups, Outcome, RunArgs};
use crate::spans::SpanLog;
use crate::stats::Fnv;
use crate::workloads::REPS;

/// Pre-generated feature windows the calls cycle over.
const WINDOWS: usize = 4096;
/// Streams the windows are cut from.
const STREAMS: usize = 256;
/// Samples per call whose outputs are folded into the repetition checksum.
const CHECKED_SAMPLES: usize = 256;
/// Calls a repetition makes at least, however slow they are: a median
/// needs 20 samples to have 10 beyond it.
const MIN_CALLS: usize = 24;

struct Setup {
    streams: Streams,
    model: TabularModel,
    /// One stacked `(batch * T) x D_I` matrix per call.
    inputs: Vec<Matrix>,
    tabularize_s: f64,
}

fn setup(seed: u64, pre: &PreprocessConfig, batch: usize) -> Setup {
    let streams = Streams::new(seed, STREAMS);
    let windows = streams.windows(pre, WINDOWS);
    let (model, tabularize_s) =
        timed(|| untrained_tables(&PredictorConfig::dart(), pre, &streams, seed));
    let rows = batch * pre.seq_len;
    let inputs =
        (0..WINDOWS / batch).map(|c| windows.slice_rows(c * rows, (c + 1) * rows)).collect();
    Setup { streams, model, inputs, tabularize_s }
}

struct Rep {
    calls: usize,
    wall_s: f64,
    call_ns: Vec<u64>,
    checksum: Fnv,
}

/// Call the model over `inputs` round-robin for `seconds`, timing each call.
fn repetition(model: &TabularModel, inputs: &[Matrix], batch: usize, seconds: f64) -> Rep {
    let mut call_ns = Vec::with_capacity(1 << 16);
    let mut checksum = Fnv::default();
    let checked_calls = (CHECKED_SAMPLES / batch).min(inputs.len());
    let min_calls = checked_calls.max(MIN_CALLS);
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || start.elapsed().as_secs_f64() < seconds {
        let x = &inputs[calls % inputs.len()];
        let t0 = Instant::now();
        let probs = if batch == 1 {
            model.forward_probs(black_box(x))
        } else {
            model.predict_batch(black_box(x))
        };
        call_ns.push(t0.elapsed().as_nanos() as u64);
        if calls < checked_calls {
            probs.as_slice().iter().for_each(|p| checksum.push(p.to_bits() as u64));
        }
        black_box(&probs);
        calls += 1;
    }
    Rep { calls, wall_s: start.elapsed().as_secs_f64(), call_ns, checksum }
}

/// Run the workload with `batch` samples per call (1 or 64).
pub fn run(args: &RunArgs, batch: usize) -> Outcome {
    let pre = PreprocessConfig::default();
    let mut out = Outcome::default();
    let (s, setup_s) = timed_setups(|| setup(args.seed, &pre, batch), drop);
    out.set_reps("setup_s", &setup_s);
    out.set("table_bytes", s.model.storage_bytes() as f64);
    out.note("model", "DART (1,32,2,128,2), untrained seeded student, no fine-tuning");
    out.note("kernel_pool_threads", rayon::current_num_threads());

    // The row path and the tiled batch path must agree bit for bit.
    let stacked = Matrix::vstack(&s.inputs[..64 / batch]);
    let rows = pre.seq_len;
    let batched = s.model.predict_batch(&stacked);
    let singles: Vec<Matrix> = (0..64)
        .map(|n| s.model.forward_probs(&stacked.slice_rows(n * rows, (n + 1) * rows)))
        .collect();
    out.check(
        "batch_path_equals_row_path",
        bit_equal(&batched, &Matrix::vstack(&singles)),
        "predict_batch over 64 samples vs 64 forward_probs calls".to_string(),
    );

    if args.trace {
        traced(args, &pre, &s, batch, &mut out);
        return out;
    }

    let warm = repetition(&s.model, &s.inputs, batch, args.seconds * 0.05);
    out.phase("warmup".into(), (warm.calls * batch) as u64, (warm.calls * batch) as u64, false);
    let (mut rps, mut checksums) = (Vec::new(), Vec::new());
    for r in 0..REPS {
        let rep = repetition(&s.model, &s.inputs, batch, args.seconds / REPS as f64);
        let samples = (rep.calls * batch) as u64;
        out.phase(format!("rep{r}"), samples, samples, true);
        rps.push(samples as f64 / rep.wall_s);
        checksums.push(rep.checksum);
    }
    out.set_reps("throughput_rps", &rps);
    out.check(
        "checksum_equal_across_repetitions",
        checksums.iter().all(|c| *c == checksums[0]),
        format!("{:016x} over the first {CHECKED_SAMPLES} samples", checksums[0].0),
    );
    out.note("output_checksum", format!("{:016x}", checksums[0].0));
    out
}

fn traced(args: &RunArgs, pre: &PreprocessConfig, s: &Setup, batch: usize, out: &mut Outcome) {
    let mut log = SpanLog::new(Instant::now());
    out.set("core.tabularize.s", s.tabularize_s);
    // Untraced reference for the overhead of tracing.
    let reference = repetition(&s.model, &s.inputs, batch, args.seconds * 0.15);
    let samples = (reference.calls * batch) as u64;
    out.phase("untraced".into(), samples, samples, true);
    let untraced_ns = reference.wall_s * 1e9 / samples as f64;
    out.set_latencies(vec![reference.call_ns]);
    let variant = PredictorConfig::dart();
    let inputs = &s.inputs[..256 / batch];
    let times = model_layers(&s.model, &variant, inputs, batch, args.seconds * 0.4, &mut log, out);
    let overhead = times.staged_ns / times.plain_ns - 1.0;
    out.set("perf.trace_overhead_share", overhead);
    out.set("perf.samples", log.len() as f64);
    out.check(
        "staged_self_times_sum_to_untraced",
        overhead.abs() <= 0.10,
        format!(
            "staged {:.0} ns/sample vs untraced {:.0} ns/sample in the same loop",
            times.staged_ns, times.plain_ns
        ),
    );
    out.note("untraced.ns_per_sample", format!("{untraced_ns:.1}"));

    let budget = args.seconds * 0.08;
    if batch == 1 {
        other_variants(args, pre, s, untraced_ns, budget, out);
    } else {
        let x512 = Matrix::vstack(&s.inputs[..512 / batch]);
        let ns = mean_ns(budget, 2, || {
            black_box(s.model.predict_batch(black_box(&x512)));
        });
        out.set("core.predict.ns_per_sample.b512", ns / 512.0);
    }

    let reqs = s.streams.sample_requests(4096);
    let probs = s.model.forward_probs(&s.inputs[0].slice_rows(0, pre.seq_len));
    request_layers(pre, &reqs, probs.row(0), out);
    out.spans = Some(log);
}

/// The 30 KB and 4 MB variants (working set against the caches) and the
/// networks the tables replace, all at batch 1 on the same input.
fn other_variants(
    args: &RunArgs,
    pre: &PreprocessConfig,
    s: &Setup,
    dart_ns: f64,
    budget: f64,
    out: &mut Outcome,
) {
    let x = &s.inputs[0];
    for (name, variant) in [
        ("core.predict.ns_per_sample.dart_s", PredictorConfig::dart_s()),
        ("core.predict.ns_per_sample.dart_l", PredictorConfig::dart_l()),
    ] {
        let model = untrained_tables(&variant, pre, &s.streams, args.seed);
        out.set(
            name,
            mean_ns(budget, 4, || {
                black_box(model.forward_probs(black_box(x)));
            }),
        );
    }
    let (di, d_o, t) = (pre.input_dim(), pre.output_dim(), pre.seq_len);
    let mut student =
        AccessPredictor::new(ModelConfig::student(di, d_o, t), args.seed ^ 0x57D).expect("student");
    let mut teacher = AccessPredictor::new(ModelConfig::teacher(di, d_o, t), args.seed ^ 0x7EAC)
        .expect("teacher");
    let student_ns = mean_ns(budget, 8, || {
        black_box(student.forward_logits(black_box(x), false));
    });
    let teacher_ns = mean_ns(budget, 2, || {
        black_box(teacher.forward_logits(black_box(x), false));
    });
    out.set("nn.student_forward.us", student_ns / 1e3);
    out.set("nn.teacher_forward.us", teacher_ns / 1e3);
    // Ratios with their base: network time over table time, batch 1.
    out.set("core.speedup_vs_student", student_ns / dart_ns);
    out.set("core.speedup_vs_teacher", teacher_ns / dart_ns);
}
