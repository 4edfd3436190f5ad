//! The trained half of paper fidelity, pinned at one seed: the loop of the
//! `paper_loop` benchmark workload (seeded `602.gcc` → simulate → train a
//! teacher → distill the student → tabularize → simulate with the tables
//! predicting inline) at the same scale and with the same seeds, so the
//! numbers asserted here are the `tabular_f1` / `core.f1_drop` /
//! `dart_ipc_gain_pct` rows of `BENCH_22.json` at seed 1, reproduced under
//! both encoders from one student.
//!
//! What it guards: the tables stay within the paper's 0.09 F1 of the
//! student they replace, the default (`log2 K`) encoder is not measurably
//! worse than the exact scan it displaced, and the default model, inline at
//! the LLC, beats no prefetching. A refactor, a kernel change or a later
//! default flip that moves any of these fails here, not in a benchmark
//! nobody reran.
//!
//! The ignored test prints the quality half of `BENCH_22.json`'s frontier
//! table (both encoders × DART-S / DART / DART-L × the ledger's seeds):
//!
//! ```sh
//! cargo test --release --test integration_science -- --ignored --nocapture
//! ```

use dart::core::config::{PredictorConfig, TabularConfig};
use dart::core::configurator::model_latency;
use dart::core::eval::evaluate_tabular_f1;
use dart::core::tabularize::tabularize;
use dart::core::{distill, DistillConfig, TabularModel};
use dart::nn::model::{AccessPredictor, ModelConfig};
use dart::nn::optim::AdamConfig;
use dart::nn::train::{evaluate_f1, train_bce, Dataset, TrainConfig};
use dart::pq::EncoderKind;
use dart::prefetch::DartPrefetcher;
use dart::sim::{NullPrefetcher, SimConfig, SimResult, Simulator};
use dart::trace::{build_dataset, workload_by_name, PreprocessConfig, TraceRecord};

/// `BENCH_22.json`'s traced `paper_loop` rows, argmin / hash tree, at seeds
/// 1, 2, 3, 13, 42: `tabular_f1` 0.626 / 0.669, 0.631 / 0.624,
/// 0.354 / 0.350, 0.447 / 0.471, 0.521 / 0.544. Seed 1 has the healthiest
/// student (F1 0.672), so a broken table shows as a large drop.
const SEED: u64 = 1;
/// The paper's bound on student-minus-tables F1 (§VII, Table VI).
const MAX_F1_DROP: f64 = 0.09;
/// How far the hash tree may fall below argmin. Across the five ledger
/// seeds the difference (hash tree − argmin) ranges −0.007 … +0.043; 0.02
/// is three times the worst observed deficit.
const ENCODER_TOLERANCE: f64 = 0.02;

fn pre() -> PreprocessConfig {
    PreprocessConfig {
        seq_len: 8,
        addr_segments: 5,
        seg_bits: 6,
        pc_segments: 1,
        delta_range: 32,
        lookforward: 20,
    }
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 64,
        adam: AdamConfig { lr: 1e-3, ..Default::default() },
        seed: 0xBEEF,
        verbose: false,
        ..Default::default()
    }
}

/// One seed's trace, its no-prefetch simulation, the chronological
/// 60 / 40 split of its LLC stream, and a teacher trained on the first part.
struct Loop {
    seed: u64,
    sim: Simulator,
    trace: Vec<TraceRecord>,
    baseline: SimResult,
    train: Dataset,
    test: Dataset,
    teacher: AccessPredictor,
}

impl Loop {
    fn new(seed: u64) -> Loop {
        let pre = pre();
        let sim = Simulator::new(SimConfig::table_iii());
        let trace = workload_by_name("602.gcc").unwrap().generate(8_000, seed);
        let mut baseline = sim.run(&trace, &mut NullPrefetcher, true);
        let llc = baseline.llc_trace.take().unwrap();
        let split = llc.len() * 6 / 10;
        let train = build_dataset(&llc[..split], &pre, 4);
        let test = build_dataset(&llc[split..], &pre, 4);
        let teacher_cfg = ModelConfig {
            input_dim: pre.input_dim(),
            dim: 64,
            heads: 4,
            layers: 2,
            ffn_dim: 256,
            output_dim: pre.output_dim(),
            seq_len: pre.seq_len,
        };
        let mut teacher = AccessPredictor::new(teacher_cfg, seed ^ 0x7EAC).unwrap();
        train_bce(&mut teacher, &train, &train_config());
        Loop { seed, sim, trace, baseline, train, test, teacher }
    }

    /// The distilled student of `variant` and its held-out F1.
    fn student(&mut self, variant: &PredictorConfig) -> (AccessPredictor, f64) {
        let pre = pre();
        let cfg = variant.to_model_config(pre.input_dim(), pre.output_dim(), pre.seq_len);
        let dcfg = DistillConfig {
            train: train_config(),
            student_seed: self.seed ^ 0x57D,
            ..Default::default()
        };
        let mut student = distill(&mut self.teacher, cfg, &self.train, &dcfg).0;
        let f1 = evaluate_f1(&mut student, &self.test, 64);
        (student, f1)
    }

    /// `student` as tables under `encoder`, and their held-out F1.
    fn tables(
        &self,
        student: &AccessPredictor,
        variant: &PredictorConfig,
        encoder: EncoderKind,
    ) -> (TabularModel, f64) {
        let tab = TabularConfig {
            encoder,
            fine_tune_epochs: 2,
            seed: self.seed ^ 0xDA47,
            ..TabularConfig::from_predictor(variant)
        };
        let model = tabularize(student, &self.train.inputs, &tab).0;
        let f1 = evaluate_tabular_f1(&model, &self.test, 64);
        (model, f1)
    }

    /// The trace again with `model` predicting inline at the LLC, charged
    /// the Eq. 22 latency of its variant.
    fn simulate(&self, model: TabularModel, variant: &PredictorConfig) -> SimResult {
        let mut dart =
            DartPrefetcher::with_latency("DART", model, pre(), model_latency(variant), 0.5, 8);
        self.sim.run(&self.trace, &mut dart, false)
    }
}

#[test]
fn tables_keep_the_students_f1_under_both_encoders_and_dart_beats_no_prefetch() {
    let variant = PredictorConfig::dart();
    let mut lp = Loop::new(SEED);
    let (student, student_f1) = lp.student(&variant);
    assert!(student_f1 > 0.5, "the student did not learn: F1 {student_f1:.3}");

    let (_, argmin_f1) = lp.tables(&student, &variant, EncoderKind::Argmin);
    let (model, tree_f1) = lp.tables(&student, &variant, TabularConfig::default().encoder);
    eprintln!("seed {SEED}: F1 student {student_f1:.4}, argmin {argmin_f1:.4}, tree {tree_f1:.4}");
    for (encoder, f1) in [("argmin", argmin_f1), ("hash tree", tree_f1)] {
        assert!(
            student_f1 - f1 <= MAX_F1_DROP,
            "{encoder}: tables F1 {f1:.3} is more than {MAX_F1_DROP} under the student's \
             {student_f1:.3}"
        );
    }
    assert!(
        tree_f1 >= argmin_f1 - ENCODER_TOLERANCE,
        "hash-tree F1 {tree_f1:.3} fell more than {ENCODER_TOLERANCE} under argmin's {argmin_f1:.3}"
    );

    let with_dart = lp.simulate(model, &variant);
    assert!(with_dart.prefetches_issued > 0);
    assert!(
        with_dart.ipc() > lp.baseline.ipc(),
        "DART inline should beat no prefetching: IPC {:.4} vs {:.4}",
        with_dart.ipc(),
        lp.baseline.ipc()
    );
}

/// Not a test: prints one JSON row per (seed, variant, encoder) for the
/// ledger's frontier table. Minutes in release; do not run it in debug.
#[test]
#[ignore = "prints BENCH_22.json's frontier quality rows; release only"]
fn frontier_quality_rows() {
    let variants = [
        ("DART-S", PredictorConfig::dart_s()),
        ("DART", PredictorConfig::dart()),
        ("DART-L", PredictorConfig::dart_l()),
    ];
    for seed in [1, 2, 3, 13, 42] {
        let mut lp = Loop::new(seed);
        for (name, variant) in &variants {
            let (student, student_f1) = lp.student(variant);
            for encoder in [EncoderKind::Argmin, EncoderKind::HashTree] {
                let (model, f1) = lp.tables(&student, variant, encoder);
                let table_bytes = model.storage_bytes();
                let r = lp.simulate(model, variant);
                println!(
                    "{{\"seed\":{seed},\"variant\":\"{name}\",\"encoder\":\"{encoder:?}\",\
                     \"table_bytes\":{table_bytes},\"eq22_cycles\":{},\"student_f1\":{student_f1:.4},\
                     \"tabular_f1\":{f1:.4},\"f1_drop\":{:.4},\"dart_accuracy\":{:.4},\
                     \"dart_coverage\":{:.4},\"dart_ipc_gain_pct\":{:.2}}}",
                    model_latency(variant),
                    student_f1 - f1,
                    r.prefetch_accuracy(),
                    r.prefetch_coverage(),
                    r.ipc_improvement_pct(&lp.baseline),
                );
            }
        }
    }
}
