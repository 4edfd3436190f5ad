//! The experiments that train networks and report held-out F1: Tables VI
//! and VII, the Fig. 8 / 9 table-size sweeps, the Fig. 11 layer
//! similarities and the design-choice ablations. Each prepares its
//! workloads with its own seed — so it prints the same numbers alone or
//! next to the others — and runs the attention → distillation →
//! tabularization pipeline once per workload.

use dart_core::config::{PredictorConfig, TabularConfig};
use dart_core::eval::{compare_reports, evaluate_tabular_f1};
use dart_core::pipeline::PipelineArtifacts;
use dart_core::tabularize::tabularize;
use dart_nn::model::AccessPredictor;
use dart_pq::{AttentionActivation, EncoderKind};
use dart_trace::{workload_by_name, Workload};

use super::Session;
use crate::context::{ExperimentContext, PreparedWorkload, Scale};
use crate::report::{print_table, record_json, Table};
use crate::zoo::{tabular_config, train_dart};

/// Prepare each workload (seeded `seed + index * stride`) and run the DART
/// pipeline on it, logging progress under `tag`.
fn train_each<T>(
    ctx: &ExperimentContext,
    tag: &str,
    workloads: &[Workload],
    (seed, stride): (u64, u64),
    with_no_kd: bool,
    mut each: impl FnMut(PreparedWorkload, PipelineArtifacts) -> T,
) -> Vec<T> {
    workloads
        .iter()
        .enumerate()
        .map(|(wi, workload)| {
            eprintln!("[{tag}] {} ({}/{})", workload.name, wi + 1, workloads.len());
            let prepared = ctx.prepare(workload, seed + wi as u64 * stride);
            let artifacts =
                train_dart(&prepared, &ctx.pre, ctx.scale, &PredictorConfig::dart(), with_no_kd);
            each(prepared, artifacts)
        })
        .collect()
}

/// Tabularize `student` under `cfg` and score the tables on the held-out split.
fn tabular_f1(student: &AccessPredictor, prepared: &PreparedWorkload, cfg: &TabularConfig) -> f64 {
    let (tab, _) = tabularize(student, &prepared.train.inputs, cfg);
    evaluate_tabular_f1(&tab, &prepared.test, 256)
}

/// The DART tabularization settings with fine-tuning off (the "w/o FT"
/// column of Table VII, and the paper's §VII-D sweep setup).
fn no_fine_tuning(ctx: &ExperimentContext) -> TabularConfig {
    tabular_config(ctx.scale, &PredictorConfig::dart()).without_fine_tuning()
}

/// Mean of one column over the rows.
pub(super) fn mean<R>(rows: &[R], field: impl Fn(&R) -> f64) -> f64 {
    rows.iter().map(field).sum::<f64>() / rows.len() as f64
}

/// One Table VI row: held-out F1 of each distillation stage on one workload.
#[derive(Clone, Debug)]
pub struct KdRow {
    /// Workload name.
    pub app: String,
    /// The large attention model.
    pub teacher: f64,
    /// The student trained on labels alone.
    pub student_no_kd: f64,
    /// The student distilled from the teacher.
    pub student: f64,
}

/// Paper Table VI: (app, teacher, student w/o KD, student).
const PAPER_TABLE6: [(&str, f64, f64, f64); 8] = [
    ("410.bwaves", 0.969, 0.923, 0.923),
    ("433.milc", 0.863, 0.715, 0.789),
    ("437.leslie3d", 0.599, 0.545, 0.552),
    ("462.libquantum", 0.992, 0.991, 0.991),
    ("602.gcc", 0.952, 0.946, 0.947),
    ("605.mcf", 0.551, 0.545, 0.655),
    ("619.lbm", 0.742, 0.679, 0.751),
    ("621.wrf", 0.638, 0.660, 0.660),
];

/// Train teacher, no-KD student and distilled student per workload.
pub(super) fn table6(ctx: &ExperimentContext) -> Vec<KdRow> {
    train_each(ctx, "table6", &ctx.workloads(), (0x7AB6, 13), true, |prepared, artifacts| KdRow {
        app: prepared.workload.name,
        teacher: artifacts.f1.teacher,
        student_no_kd: artifacts.f1.student_no_kd.unwrap_or(0.0),
        student: artifacts.f1.student,
    })
}

/// Table VI — F1 of the teacher, the student trained without KD, and the
/// student trained with the multi-label knowledge distillation.
pub(super) fn run_table6(s: &mut Session) {
    let rows = s.table6();
    let mut t = Table::new(&[
        "Application",
        "Teacher p.",
        "Teacher ours",
        "Stu w/o KD p.",
        "Stu w/o KD ours",
        "Student p.",
        "Student ours",
    ]);
    let mut records = Vec::new();
    for (row, paper) in rows.iter().zip(PAPER_TABLE6) {
        t.row(vec![
            row.app.clone(),
            format!("{:.3}", paper.1),
            format!("{:.3}", row.teacher),
            format!("{:.3}", paper.2),
            format!("{:.3}", row.student_no_kd),
            format!("{:.3}", paper.3),
            format!("{:.3}", row.student),
        ]);
        records.push(serde_json::json!({
            "app": row.app,
            "paper": {"teacher": paper.1, "student_no_kd": paper.2, "student": paper.3},
            "ours": {
                "teacher": row.teacher,
                "student_no_kd": row.student_no_kd,
                "student": row.student,
            },
        }));
    }
    t.row(vec![
        "Mean".into(),
        "0.788".into(),
        format!("{:.3}", mean(rows, |r| r.teacher)),
        "0.751".into(),
        format!("{:.3}", mean(rows, |r| r.student_no_kd)),
        "0.783".into(),
        format!("{:.3}", mean(rows, |r| r.student)),
    ]);
    print_table("Table VI: F1 with and without knowledge distillation", &t);
    println!(
        "\nShape check (paper): KD lifts the student mean above the no-KD student \
         and close to the teacher; regular apps (libquantum, gcc) are easy, \
         irregular ones (mcf, leslie3d) hard."
    );
    record_json("table6", &serde_json::Value::Array(records));
}

/// One Table VII row: held-out F1 of the tables on one workload.
#[derive(Clone, Debug)]
pub struct FtRow {
    /// Workload name.
    pub app: String,
    /// DART tabularized without layer fine-tuning.
    pub dart_no_ft: f64,
    /// DART (with fine-tuning).
    pub dart: f64,
    /// The student the tables approximate.
    pub student: f64,
}

/// Paper Table VII: (app, DART w/o FT, DART).
const PAPER_TABLE7: [(&str, f64, f64); 8] = [
    ("410.bwaves", 0.679, 0.790),
    ("433.milc", 0.416, 0.480),
    ("437.leslie3d", 0.541, 0.544),
    ("462.libquantum", 0.991, 0.991),
    ("602.gcc", 0.946, 0.947),
    ("605.mcf", 0.655, 0.655),
    ("619.lbm", 0.617, 0.638),
    ("621.wrf", 0.443, 0.543),
];

/// The pipeline gives student + DART-with-FT; the same student is
/// tabularized again without fine-tuning for the ablation column.
pub(super) fn table7(ctx: &ExperimentContext) -> Vec<FtRow> {
    train_each(ctx, "table7", &ctx.workloads(), (0x7AB7, 13), false, |prepared, artifacts| FtRow {
        dart_no_ft: tabular_f1(&artifacts.student, &prepared, &no_fine_tuning(ctx)),
        dart: artifacts.f1.dart,
        student: artifacts.f1.student,
        app: prepared.workload.name,
    })
}

/// Table VII — F1 of the tabularized predictor with and without layer
/// fine-tuning, per workload (plus the student reference).
pub(super) fn run_table7(s: &mut Session) {
    let rows = s.table7();
    let mut t = Table::new(&[
        "Application",
        "w/o FT p.",
        "w/o FT ours",
        "DART p.",
        "DART ours",
        "Student ours",
    ]);
    let mut records = Vec::new();
    for (row, paper) in rows.iter().zip(PAPER_TABLE7) {
        t.row(vec![
            row.app.clone(),
            format!("{:.3}", paper.1),
            format!("{:.3}", row.dart_no_ft),
            format!("{:.3}", paper.2),
            format!("{:.3}", row.dart),
            format!("{:.3}", row.student),
        ]);
        records.push(serde_json::json!({
            "app": row.app,
            "paper": {"dart_no_ft": paper.1, "dart": paper.2},
            "ours": {"dart_no_ft": row.dart_no_ft, "dart": row.dart, "student": row.student},
        }));
    }
    t.row(vec![
        "Mean".into(),
        "0.661".into(),
        format!("{:.3}", mean(rows, |r| r.dart_no_ft)),
        "0.699".into(),
        format!("{:.3}", mean(rows, |r| r.dart)),
        format!("{:.3}", mean(rows, |r| r.student)),
    ]);
    print_table("Table VII: DART F1 with and without fine-tuning", &t);
    println!(
        "\nShape check (paper): fine-tuning lifts mean F1 (paper: +5.75% relative) \
         and DART lands somewhat below the student it approximates."
    );
    record_json("table7", &serde_json::Value::Array(records));
}

/// A Fig. 8 / Fig. 9 sweep: F1 per workload as one table-size parameter varies.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The parameter values swept.
    pub values: Vec<usize>,
    /// `(workload, F1 at each value)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Train one student per workload and re-tabularize it, without
/// fine-tuning and with the structure fixed, at each value `set` applies.
fn sweep(
    ctx: &ExperimentContext,
    tag: &str,
    seed: u64,
    values: Vec<usize>,
    set: fn(&mut TabularConfig, usize),
) -> Sweep {
    let mut workloads = ctx.workloads();
    if ctx.scale == Scale::Quick {
        workloads.truncate(4);
    }
    let rows = train_each(ctx, tag, &workloads, (seed, 13), false, |prepared, artifacts| {
        let series = values
            .iter()
            .map(|&value| {
                let mut cfg = no_fine_tuning(ctx);
                set(&mut cfg, value);
                tabular_f1(&artifacts.student, &prepared, &cfg)
            })
            .collect();
        (prepared.workload.name, series)
    });
    Sweep { values, rows }
}

/// Print and record a sweep over `axis` (`K` or `C`: the column prefix,
/// and lower-cased the JSON field).
fn report_sweep(sweep: &Sweep, name: &str, axis: &str, title: &str, shape_check: &str) {
    let key: &str = &axis.to_ascii_lowercase();
    let mut headers: Vec<String> = vec!["Application".into()];
    headers.extend(sweep.values.iter().map(|v| format!("{axis}={v}")));
    let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    let mut records = Vec::new();
    for (app, series) in &sweep.rows {
        let mut row = vec![app.clone()];
        row.extend(series.iter().map(|f1| format!("{f1:.3}")));
        t.row(row);
        let points: Vec<_> = sweep
            .values
            .iter()
            .zip(series)
            .map(|(v, f1)| serde_json::json!({key: v, "f1": f1}))
            .collect();
        records.push(serde_json::json!({"app": app, "series": points}));
    }
    let mut mean_row = vec!["Mean".to_string()];
    for vi in 0..sweep.values.len() {
        mean_row.push(format!("{:.3}", mean(&sweep.rows, |(_, series)| series[vi])));
    }
    t.row(mean_row);
    print_table(title, &t);
    println!("\n{shape_check}");
    record_json(name, &serde_json::Value::Array(records));
}

/// Fig. 8 — DART F1 vs. number of prototypes `K` (subspaces fixed at the
/// DART config), without fine-tuning, as in the paper's §VII-D setup.
pub(super) fn run_fig8(s: &mut Session) {
    let ks = match s.ctx.scale {
        Scale::Quick => vec![16, 64, 128, 512],
        Scale::Full => vec![16, 32, 64, 128, 256, 512, 1024],
    };
    report_sweep(
        &sweep(&s.ctx, "fig8", 0xF18, ks, |cfg, k| cfg.k = k),
        "fig8",
        "K",
        "Fig. 8: F1 vs prototypes K (no fine-tuning)",
        "Shape check (paper): F1 rises with K, with most of the gain appearing \
         beyond K = 128 (paper: K=1024 beats K=16 by ~10.9%).",
    );
}

/// Fig. 9 — DART F1 vs. number of subspaces `C` (prototypes fixed at the
/// DART config), without fine-tuning.
pub(super) fn run_fig9(s: &mut Session) {
    report_sweep(
        &sweep(&s.ctx, "fig9", 0xF19, vec![1, 2, 4, 8], |cfg, c| cfg.c = c),
        "fig9",
        "C",
        "Fig. 9: F1 vs subspaces C (no fine-tuning)",
        "Shape check (paper): higher C helps, but less sharply than K \
         (paper: C=8 beats C=1 by ~6.6%).",
    );
}

fn named_workloads(apps: &[&str]) -> Vec<Workload> {
    apps.iter().map(|app| workload_by_name(app).expect("known workload")).collect()
}

/// Fig. 11 for one workload: how close each tabularized layer's output
/// stays to the student's.
#[derive(Clone, Debug)]
pub struct LayerSimilarity {
    /// Workload name.
    pub app: String,
    /// `(layer, cosine with fine-tuning, cosine without)`, input to output.
    pub layers: Vec<(String, f32, f32)>,
}

/// Layer-wise cosine similarity of the tables to the student on one
/// regular and one irregular workload.
pub fn fig11(ctx: &ExperimentContext) -> Vec<LayerSimilarity> {
    let apps = named_workloads(&["410.bwaves", "605.mcf"]);
    train_each(ctx, "fig11", &apps, (0xF111, 13), false, |prepared, artifacts| {
        let (_, report_no_ft) =
            tabularize(&artifacts.student, &prepared.train.inputs, &no_fine_tuning(ctx));
        LayerSimilarity {
            app: prepared.workload.name,
            layers: compare_reports(&artifacts.report, &report_no_ft),
        }
    })
}

/// Fig. 11 — layer-wise cosine similarity between the student network and
/// its tabularized models, with vs. without fine-tuning.
pub(super) fn run_fig11(s: &mut Session) {
    let mut records = Vec::new();
    for LayerSimilarity { app, layers } in fig11(&s.ctx) {
        let mut t = Table::new(&["Layer", "DART (with FT)", "DART w/o FT", "FT gain"]);
        for (layer, ft, noft) in &layers {
            t.row(vec![
                layer.clone(),
                format!("{ft:.4}"),
                format!("{noft:.4}"),
                format!("{:+.4}", ft - noft),
            ]);
            records.push(serde_json::json!({
                "app": app, "layer": layer, "with_ft": ft, "without_ft": noft,
            }));
        }
        print_table(&format!("Fig. 11: layer-wise cosine similarity — {app}"), &t);
    }
    println!(
        "\nShape check (paper): fine-tuning raises similarity, most visibly for \
         layers close to the output where errors have accumulated."
    );
    record_json("fig11", &serde_json::Value::Array(records));
}

/// One ablation setting and its held-out F1 on bwaves and gcc.
#[derive(Clone, Debug, serde::Serialize)]
pub struct AblationRow {
    /// The design choice under test.
    pub ablation: &'static str,
    /// The alternative measured.
    pub setting: &'static str,
    /// F1 per workload.
    pub f1: Vec<f64>,
}

/// One student per workload, re-tabularized (with fine-tuning) under each
/// alternative: encoder kind, attention activation, fused FFN.
pub fn ablations(ctx: &ExperimentContext) -> Vec<AblationRow> {
    let apps = named_workloads(&["410.bwaves", "602.gcc"]);
    let students =
        train_each(ctx, "ablations", &apps, (0xAB1A, 17), false, |prepared, artifacts| {
            (prepared, artifacts.student)
        });
    let measure = |ablation, setting, mutate: fn(&mut TabularConfig)| {
        let f1 = students
            .iter()
            .map(|(prepared, student)| {
                let mut cfg = tabular_config(ctx.scale, &PredictorConfig::dart());
                mutate(&mut cfg);
                tabular_f1(student, prepared, &cfg)
            })
            .collect();
        AblationRow { ablation, setting, f1 }
    };
    vec![
        measure("encoder", "argmin (exact)", |c| c.encoder = EncoderKind::Argmin),
        measure("encoder", "hash-tree (log K)", |c| c.encoder = EncoderKind::HashTree),
        measure("attention act", "sigmoid (Eq. 14)", |c| {
            c.activation = AttentionActivation::SigmoidScaled
        }),
        measure("attention act", "softmax/subspace", |c| {
            c.activation = AttentionActivation::SoftmaxPerSubspace
        }),
        measure("ffn", "two kernels", |c| c.fuse_ffn = false),
        measure("ffn", "fused table", |c| c.fuse_ffn = true),
    ]
}

/// Ablations for the design choices the paper leaves open: encoder kind
/// (the default log-K hash tree vs the exact arg-min upper bound),
/// attention activation (Eq. 14 sigmoid vs per-subspace softmax), and the
/// fused single-table FFN of §VIII vs two kernels.
pub(super) fn run_ablations(s: &mut Session) {
    let rows = ablations(&s.ctx);
    let mut t = Table::new(&["Ablation", "Setting", "F1 (bwaves)", "F1 (gcc)"]);
    for row in &rows {
        let mut cells = vec![row.ablation.to_string(), row.setting.to_string()];
        cells.extend(row.f1.iter().map(|f1| format!("{f1:.3}")));
        t.row(cells);
    }
    print_table("Ablations: encoder, attention activation, fused FFN", &t);
    println!(
        "\nMeasured shapes (BENCH_22.json): the hash tree — the default, and the \
         encoder of every row that does not say otherwise — matches exact argmin to \
         three decimals on both workloads at quick scale, at a fifth of the latency; \
         sigmoid vs softmax comparable (the fine-tuned layers absorb either), fused \
         FFN trades accuracy for half the FFN latency."
    );
    record_json("ablations", &serde_json::to_value(&rows).unwrap());
}
