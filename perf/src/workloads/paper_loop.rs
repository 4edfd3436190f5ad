//! `paper_loop`: the paper's loop end to end. A seeded synthetic
//! `602.gcc` trace is simulated (Table III machine, no prefetcher) to get
//! the LLC stream; a small teacher is trained on it, distilled into the
//! DART student, tabularized with fine-tuning; the trace is then
//! simulated again with the tables predicting inline. gcc is a
//! stream + hop mix: bwaves saturates at 99.8 % accuracy and shows nothing.
//!
//! The build (dataset → teacher → distill → tabularize) is this
//! workload's set-up; the timed repetitions are whole simulations with
//! `DartPrefetcher` at the LLC. The traced run also times every
//! `on_access` call with a wrapper the benchmark puts around the prefetcher.

use std::time::Instant;

use dart_core::config::{PredictorConfig, TabularConfig};
use dart_core::configurator::model_latency;
use dart_core::eval::evaluate_tabular_f1;
use dart_core::tabularize::tabularize;
use dart_core::{distill, DistillConfig, TabularModel};
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_nn::optim::AdamConfig;
use dart_nn::train::{evaluate_f1, train_bce, Dataset, TrainConfig};
use dart_prefetch::{BestOffset, DartPrefetcher};
use dart_serve::PrefetchRequest;
use dart_sim::{LlcAccess, NullPrefetcher, Prefetcher, SimConfig, SimResult, Simulator};
use dart_trace::{build_dataset, workload_by_name, PreprocessConfig, TraceRecord};

use crate::probes::{model_layers, request_layers};
use crate::report::{timed, timed_setups, Outcome, RunArgs};
use crate::spans::SpanLog;

/// Core-side loads in the trace. The experiment harness's quick scale uses
/// 30 000; a run here has to fit one build and several DART simulations
/// (~180 us per LLC access) into its time cap, so the trace is shorter.
const LOADS: usize = 8_000;
/// Dataset sampling stride over the LLC stream (quick scale).
const STRIDE: usize = 4;
/// Bitmap probability threshold and degree cap of the prefetcher.
const THRESHOLD: f32 = 0.5;
const MAX_DEGREE: usize = 8;

/// The experiment harness's quick-scale preprocessing: look-forward must
/// exceed the widest stream interleave or its labels vanish.
fn preprocess() -> PreprocessConfig {
    PreprocessConfig {
        seq_len: 8,
        addr_segments: 5,
        seg_bits: 6,
        pc_segments: 1,
        delta_range: 32,
        lookforward: 20,
    }
}

fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        adam: AdamConfig { lr: 1e-3, ..Default::default() },
        seed: 0xBEEF,
        verbose: false,
        ..Default::default()
    }
}

/// Everything the build produces, with the seconds each stage took.
struct Built {
    trace: Vec<TraceRecord>,
    llc: Vec<TraceRecord>,
    baseline: SimResult,
    test: Dataset,
    teacher: AccessPredictor,
    student: AccessPredictor,
    model: TabularModel,
    generate_s: f64,
    null_sim_s: f64,
    dataset_s: f64,
    dataset_samples: usize,
    teacher_s: f64,
    distill_s: f64,
    tabularize_s: f64,
}

fn build(seed: u64, sim: &Simulator, pre: &PreprocessConfig) -> Built {
    let workload = workload_by_name("602.gcc").expect("gcc is a Table IV workload");
    let (trace, generate_s) = timed(|| workload.generate(LOADS, seed));
    let (mut baseline, null_sim_s) = timed(|| sim.run(&trace, &mut NullPrefetcher, true));
    let llc = baseline.llc_trace.take().expect("LLC trace was requested");

    // Train on the first 60 % of the LLC stream, hold out the rest —
    // chronological, as a deployed prefetcher would be trained.
    let split = llc.len() * 6 / 10;
    let ((train, test), dataset_s) = timed(|| {
        (build_dataset(&llc[..split], pre, STRIDE), build_dataset(&llc[split..], pre, STRIDE))
    });

    let teacher_cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 64,
        heads: 4,
        layers: 2,
        ffn_dim: 256,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let mut teacher = AccessPredictor::new(teacher_cfg, seed ^ 0x7EAC).expect("teacher config");
    let ((), teacher_s) = timed(|| {
        train_bce(&mut teacher, &train, &train_config(2));
    });
    let variant = PredictorConfig::dart();
    let student_cfg = variant.to_model_config(pre.input_dim(), pre.output_dim(), pre.seq_len);
    let dcfg =
        DistillConfig { train: train_config(2), student_seed: seed ^ 0x57D, ..Default::default() };
    let (student, distill_s) = timed(|| distill(&mut teacher, student_cfg, &train, &dcfg).0);
    let tab = TabularConfig {
        fine_tune_epochs: 2,
        seed: seed ^ 0xDA47,
        ..TabularConfig::from_predictor(&variant)
    };
    let (model, tabularize_s) = timed(|| tabularize(&student, &train.inputs, &tab).0);
    Built {
        trace,
        llc,
        baseline,
        test,
        teacher,
        student,
        model,
        generate_s,
        null_sim_s,
        dataset_s,
        dataset_samples: train.len(),
        teacher_s,
        distill_s,
        tabularize_s,
    }
}

/// Times every `on_access` of the wrapped prefetcher (host nanoseconds).
struct Timed<P> {
    inner: P,
    ns: Vec<u64>,
}

impl<P: Prefetcher> Prefetcher for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn latency(&self) -> u64 {
        self.inner.latency()
    }

    fn on_access(&mut self, access: &LlcAccess) -> Vec<u64> {
        let t0 = Instant::now();
        let out = self.inner.on_access(access);
        self.ns.push(t0.elapsed().as_nanos() as u64);
        out
    }

    fn storage_bytes(&self) -> u64 {
        self.inner.storage_bytes()
    }
}

/// Every counter of a simulation, for exact comparison between repetitions.
fn counters(r: &SimResult) -> [u64; 12] {
    [
        r.cycles,
        r.instructions,
        r.llc.accesses,
        r.llc.hits,
        r.llc.misses,
        r.llc.prefetch_fills,
        r.llc.useful_prefetches,
        r.prefetches_issued,
        r.prefetches_redundant,
        r.prefetches_no_mshr,
        r.prefetches_queue_dropped,
        r.late_prefetches,
    ]
}

/// The tables as an LLC prefetcher with the Eq. 22 latency of their variant.
fn dart_prefetcher(model: &TabularModel, pre: &PreprocessConfig) -> DartPrefetcher {
    let latency = model_latency(&PredictorConfig::dart());
    DartPrefetcher::with_latency("DART", model.clone(), *pre, latency, THRESHOLD, MAX_DEGREE)
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let pre = preprocess();
    let sim = Simulator::new(SimConfig::table_iii());
    let mut out = Outcome::default();
    // One build is several seconds; `timed_setups` repeats only what is cheap.
    let (mut b, setup_s) = timed_setups(|| build(args.seed, &sim, &pre), drop);
    out.set_reps("setup_s", &setup_s);
    out.set("table_bytes", b.model.storage_bytes() as f64);
    out.note(
        "trace",
        format!(
            "602.gcc synthetic, {LOADS} loads, {} LLC accesses, Table III machine",
            b.llc.len()
        ),
    );
    out.note(
        "model",
        "teacher (2,64,4) 2 epochs -> distilled DART (1,32,2,128,2) 2 epochs -> tables, 2 fine-tune epochs",
    );
    let tabular_f1 = evaluate_tabular_f1(&b.model, &b.test, 64);
    out.check(
        "tables_predict",
        tabular_f1.is_finite() && tabular_f1 > 0.0,
        format!("held-out F1 {tabular_f1:.4}"),
    );

    if args.trace {
        traced(args, &pre, &sim, &mut b, tabular_f1, &mut out);
        return out;
    }

    let mut rps = Vec::new();
    let mut first: Option<[u64; 12]> = None;
    let mut identical = true;
    let start = Instant::now();
    while rps.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let mut dart = dart_prefetcher(&b.model, &pre);
        let t0 = Instant::now();
        let result = sim.run(&b.trace, &mut dart, false);
        let wall = t0.elapsed().as_secs_f64();
        let records = b.trace.len() as u64;
        out.phase(format!("rep{}", rps.len()), records, records, true);
        rps.push(records as f64 / wall);
        identical &= *first.get_or_insert(counters(&result)) == counters(&result);
    }
    out.set_reps("throughput_rps", &rps);
    let c = first.expect("at least two repetitions ran");
    out.check(
        "sim_counters_equal_across_repetitions",
        identical,
        format!("cycles {} issued {} useful {} late {}", c[0], c[7], c[6], c[11]),
    );
    out.check("dart_issues_prefetches", c[7] > 0, format!("{} prefetches issued", c[7]));
    out
}

fn traced(
    args: &RunArgs,
    pre: &PreprocessConfig,
    sim: &Simulator,
    b: &mut Built,
    tabular_f1: f64,
    out: &mut Outcome,
) {
    let mut log = SpanLog::new(Instant::now());
    let records = b.trace.len() as f64;
    out.set("perf.build_s", b.dataset_s + b.teacher_s + b.distill_s + b.tabularize_s);
    out.set("trace.generate.records_per_s", records / b.generate_s);
    out.set("trace.build_dataset.samples_per_s", b.dataset_samples as f64 / b.dataset_s);
    out.set("nn.teacher_train.s", b.teacher_s);
    out.set("nn.distill.s", b.distill_s);
    out.set("core.tabularize.s", b.tabularize_s);
    let teacher_f1 = evaluate_f1(&mut b.teacher, &b.test, 64);
    let student_f1 = evaluate_f1(&mut b.student, &b.test, 64);
    out.set("nn.teacher_f1", teacher_f1);
    out.set("nn.student_f1", student_f1);
    out.set("tabular_f1", tabular_f1);
    out.set("core.f1_drop", student_f1 - tabular_f1);

    // Each prefetcher's simulation under a span, twice; the faster run of
    // each pair is its host time.
    let (null_name, bo_name, dart_name) =
        (log.name("sim.run.null"), log.name("sim.run.bo"), log.name("sim.run.dart"));
    let mut fastest = [f64::MAX; 3];
    let (mut bo_result, mut dart_result) = (SimResult::default(), SimResult::default());
    let mut plain_dart_s = f64::MAX;
    let mut latencies = Vec::new();
    for rep in 0..2u64 {
        let mut timed_run = |name: u16, slot: usize, pf: &mut dyn Prefetcher| -> SimResult {
            let t0 = Instant::now();
            let r = log.span(name, rep, || sim.run(&b.trace, pf, false));
            fastest[slot] = fastest[slot].min(t0.elapsed().as_secs_f64());
            r
        };
        timed_run(null_name, 0, &mut NullPrefetcher);
        bo_result = timed_run(bo_name, 1, &mut BestOffset::new());
        let mut dart =
            Timed { inner: dart_prefetcher(&b.model, pre), ns: Vec::with_capacity(LOADS) };
        dart_result = timed_run(dart_name, 2, &mut dart);
        latencies.push(dart.ns);
        out.phase(format!("traced{rep}"), b.trace.len() as u64, b.trace.len() as u64, true);
        // Untraced reference: the same simulation with no span and no
        // per-access timer.
        let mut plain = dart_prefetcher(&b.model, pre);
        let t0 = Instant::now();
        let plain_result = sim.run(&b.trace, &mut plain, false);
        plain_dart_s = plain_dart_s.min(t0.elapsed().as_secs_f64());
        out.check(
            &format!("traced_equals_untraced.{rep}"),
            counters(&plain_result) == counters(&dart_result),
            "simulation counters with and without the benchmark's timers".to_string(),
        );
    }
    out.set_latencies(latencies);
    out.set("perf.trace_overhead_share", fastest[2] / plain_dart_s - 1.0);
    let llc = b.llc.len() as f64;
    out.set("sim.null.records_per_s", records / fastest[0]);
    out.set("sim.bo.records_per_s", records / fastest[1]);
    out.set("sim.dart.records_per_s", records / fastest[2]);
    out.set("prefetch.bo.ns_per_access", (fastest[1] - fastest[0]).max(0.0) * 1e9 / llc);
    out.set("prefetch.dart.ns_per_access", (fastest[2] - fastest[0]).max(0.0) * 1e9 / llc);
    out.set("sim.llc_accesses", llc);
    out.set("sim.dart.prefetches_issued", dart_result.prefetches_issued as f64);
    out.set("sim.dart.prefetches_useful", dart_result.useful_prefetches() as f64);
    out.set("sim.dart.prefetches_late", dart_result.late_prefetches as f64);
    out.set(
        "sim.dart.prefetches_dropped",
        (dart_result.prefetches_redundant
            + dart_result.prefetches_no_mshr
            + dart_result.prefetches_queue_dropped) as f64,
    );
    out.set("sim.bo.ipc_gain_pct", bo_result.ipc_improvement_pct(&b.baseline));
    out.set("dart_accuracy", dart_result.prefetch_accuracy());
    out.set("dart_coverage", dart_result.prefetch_coverage());
    out.set("dart_ipc_gain_pct", dart_result.ipc_improvement_pct(&b.baseline));
    out.note("null_sim_s", format!("{:.4}", b.null_sim_s));

    // The distilled tables stage by stage, on windows of the LLC stream.
    let (t, di) = (pre.seq_len, pre.input_dim());
    let inputs: Vec<Matrix> = (0..256.min(b.llc.len() / t))
        .map(|w| {
            let mut x = Matrix::zeros(t, di);
            for (step, rec) in b.llc[w * t..(w + 1) * t].iter().enumerate() {
                pre.write_token_features(rec.block(), rec.pc, x.row_mut(step));
            }
            x
        })
        .collect();
    model_layers(&b.model, &PredictorConfig::dart(), &inputs, 1, args.seconds * 0.2, &mut log, out);
    let reqs: Vec<PrefetchRequest> = b
        .llc
        .iter()
        .take(4096)
        .map(|r| PrefetchRequest { stream_id: r.pc % 64, pc: r.pc, addr: r.addr })
        .collect();
    let probs = b.model.forward_probs(&inputs[0]);
    request_layers(pre, &reqs, probs.row(0), out);
    out.set("perf.samples", log.len() as f64);
    out.spans = Some(log);
}
