//! The closed-form experiments: Tables III, V, VIII, IX and Fig. 10 are
//! functions of the configuration and the Eq. 20–23 cost models alone — no
//! traces, no training, microseconds each. Their typed results are what
//! the tests at the bottom pin against the paper.

use dart_core::config::{DesignConstraints, PredictorConfig};
use dart_core::configurator::{model_cost, model_latency, model_storage_bytes, ShapeParams};
use dart_core::TableConfigurator;
use dart_nn::cost::{attention_model_cost, CostReport};
use dart_nn::model::ModelConfig;
use dart_prefetch::spec::{table_ix, PrefetcherSpec};
use dart_prefetch::{BestOffset, Isb};
use dart_sim::{Prefetcher, SimConfig};
use serde::Serialize;

use super::Session;
use crate::report::{human_bytes, human_count, print_table, record_json, Table};

/// Table III — simulation parameters: print our ChampSim-substitute
/// configuration next to the paper's.
pub(super) fn run_table3(_: &mut Session) {
    let cfg = SimConfig::table_iii();
    let mut t = Table::new(&["Parameter", "Paper (Table III)", "This repo"]);
    t.row(vec![
        "CPU".into(),
        "4 GHz, 4 cores, 4-wide OoO, 256-entry ROB".into(),
        format!("1 core simulated, {}-wide, {}-entry ROB", cfg.core.width, cfg.core.rob_size),
    ]);
    t.row(vec![
        "L1 D-cache".into(),
        "64 KB, 12-way, 5-cycle".into(),
        format!("{} KB, {}-way, {}-cycle", cfg.l1d.size_bytes >> 10, cfg.l1d.ways, cfg.l1d.latency),
    ]);
    t.row(vec![
        "L2 cache".into(),
        "1 MB, 8-way, 10-cycle".into(),
        format!("{} MB, {}-way, {}-cycle", cfg.l2.size_bytes >> 20, cfg.l2.ways, cfg.l2.latency),
    ]);
    t.row(vec![
        "LL cache".into(),
        "8 MB, 16-way, 64-entry MSHR, 20-cycle".into(),
        format!(
            "{} MB, {}-way, {}-entry MSHR, {}-cycle",
            cfg.llc.size_bytes >> 20,
            cfg.llc.ways,
            cfg.llc.mshr_entries,
            cfg.llc.latency
        ),
    ]);
    t.row(vec![
        "DRAM".into(),
        "tRP=tRCD=tCAS=12.5ns, 8 GB/s per core".into(),
        format!(
            "{}-cycle access (3 x 50 @ 4 GHz), {} cycles/line transfer",
            cfg.dram.latency, cfg.dram.cycles_per_transfer
        ),
    ]);
    print_table("Table III: simulation parameters", &t);
    record_json("table3", &serde_json::to_value(cfg).unwrap());
}

/// Table V — Teacher / Student / DART under the analytic cost models.
#[derive(Clone, Copy, Debug)]
pub struct Table5 {
    /// The large attention model `(4, 256, 8)`.
    pub teacher: CostReport,
    /// The distilled student `(1, 32, 2)`.
    pub student: CostReport,
    /// The tabularized student `(1, 32, 2, 128, 2)`, Eq. 20–23.
    pub dart: CostReport,
}

impl Table5 {
    /// Teacher latency over DART latency (paper: 170x).
    pub fn speedup_vs_teacher(&self) -> f64 {
        self.teacher.latency_cycles as f64 / self.dart.latency_cycles as f64
    }

    /// Student latency over DART latency (paper: 9.4x).
    pub fn speedup_vs_student(&self) -> f64 {
        self.student.latency_cycles as f64 / self.dart.latency_cycles as f64
    }

    /// Arithmetic operations removed relative to the teacher, percent
    /// (paper: 99.99 %).
    pub fn op_reduction_vs_teacher_pct(&self) -> f64 {
        (1.0 - self.dart.ops as f64 / self.teacher.ops as f64) * 100.0
    }

    /// Arithmetic operations removed relative to the student, percent
    /// (paper: 91.83 %).
    pub fn op_reduction_vs_student_pct(&self) -> f64 {
        (1.0 - self.dart.ops as f64 / self.student.ops as f64) * 100.0
    }
}

/// Compute Table V at the paper's shape (`T = 16`, `D_O = 128`).
pub fn table5() -> Table5 {
    let shape = ShapeParams::default();
    Table5 {
        teacher: attention_model_cost(&ModelConfig::teacher(8, shape.output_dim, shape.seq_len)),
        student: attention_model_cost(&ModelConfig::student(8, shape.output_dim, shape.seq_len)),
        dart: model_cost(&PredictorConfig::dart(), &shape),
    }
}

pub(super) fn run_table5(_: &mut Session) {
    let r = table5();
    let (tc, sc, dc) = (r.teacher, r.student, r.dart);
    let mut t = Table::new(&[
        "Model",
        "L",
        "D",
        "H",
        "K",
        "C",
        "Latency (paper)",
        "Latency (ours)",
        "Storage (paper)",
        "Storage (ours)",
        "Ops (paper)",
        "Ops (ours)",
    ]);
    let mut row = |model: &str, dims: [&str; 5], paper: [&str; 3], ours: [String; 3]| {
        let [latency, storage, ops] = ours;
        let mut cells = vec![model.to_string()];
        cells.extend(dims.map(String::from));
        cells.extend([paper[0].into(), latency, paper[1].into(), storage, paper[2].into(), ops]);
        t.row(cells);
    };
    let nn = |c: CostReport| {
        [human_count(c.latency_cycles), human_bytes(c.storage_bytes), human_count(c.ops)]
    };
    row("Teacher", ["4", "256", "8", "-", "-"], ["16.5K", "86.2MB", "98.3M"], nn(tc));
    row("Student", ["1", "32", "2", "-", "-"], ["908", "827.4KB", "134.7K"], nn(sc));
    row(
        "DART",
        ["1", "32", "2", "128", "2"],
        ["97", "864.4KB", "11.0K"],
        [dc.latency_cycles.to_string(), human_bytes(dc.storage_bytes), human_count(dc.ops)],
    );
    print_table("Table V: model configurations and complexity", &t);

    println!("\nDerived headline ratios (paper: 170x / 9.4x acceleration, 99.99% / 91.83% op reduction):");
    println!(
        "  teacher/DART latency: {:.0}x   student/DART latency: {:.1}x",
        r.speedup_vs_teacher(),
        r.speedup_vs_student()
    );
    println!(
        "  op reduction vs teacher: {:.2}%   vs student: {:.2}%",
        r.op_reduction_vs_teacher_pct(),
        r.op_reduction_vs_student_pct()
    );
    println!(
        "\nNote: NN storage uses 4 B/parameter; the paper's storage assumptions are \
         unstated. Latency/ops reproduce Table V closely."
    );
    record_json(
        "table5",
        &serde_json::json!({
            "teacher": tc, "student": sc, "dart": dc,
            "paper": {
                "teacher": {"latency": 16_500, "storage": 86_200_000u64, "ops": 98_300_000u64},
                "student": {"latency": 908, "storage": 827_400, "ops": 134_700},
                "dart": {"latency": 97, "storage": 864_400, "ops": 11_000},
            }
        }),
    );
}

/// One Table VIII row: what the configurator picks under one constraint pair.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Table8Pick {
    /// Prefetcher variant the constraints define.
    pub name: &'static str,
    /// The latency / storage bounds (paper Eq. 9).
    pub constraints: DesignConstraints,
    /// The `(L, D, H, K, C)` the greedy search chose.
    pub config: PredictorConfig,
    /// Its Eq. 20–23 cost.
    pub cost: CostReport,
}

/// Run the table configurator under the paper's three constraint pairs.
pub fn table8() -> Vec<Table8Pick> {
    let conf = TableConfigurator::default();
    [
        ("DART-S", DesignConstraints::dart_s()),
        ("DART", DesignConstraints::dart()),
        ("DART-L", DesignConstraints::dart_l()),
    ]
    .into_iter()
    .map(|(name, constraints)| {
        let (config, cost) = conf.configure(&constraints).expect("feasible constraints");
        Table8Pick { name, constraints, config, cost }
    })
    .collect()
}

pub(super) fn run_table8(_: &mut Session) {
    /// Paper Table VIII: (config, latency, storage, ops) per row.
    const PAPER: [[&str; 4]; 3] = [
        ["(1,16,2,16,1)", "57", "29.9K", "1.6K"],
        ["(1,32,2,128,2)", "97", "864.4K", "11.0K"],
        ["(2,32,2,256,2)", "191", "3.75M", "17.5K"],
    ];
    let picks = table8();
    let mut t = Table::new(&[
        "Prefetcher",
        "Constraints (t/cyc, s/B)",
        "Config paper",
        "Config ours",
        "Latency paper",
        "Latency ours",
        "Storage paper",
        "Storage ours",
        "Ops paper",
        "Ops ours",
    ]);
    for (pick, [p_cfg, p_lat, p_sto, p_ops]) in picks.iter().zip(PAPER) {
        let (constraints, cfg, cost) = (pick.constraints, pick.config, pick.cost);
        t.row(vec![
            pick.name.into(),
            format!("{}, {}", constraints.latency_cycles, human_bytes(constraints.storage_bytes)),
            p_cfg.into(),
            format!("({},{},{},{},{})", cfg.layers, cfg.dim, cfg.heads, cfg.k, cfg.c),
            p_lat.into(),
            cost.latency_cycles.to_string(),
            p_sto.into(),
            human_bytes(cost.storage_bytes),
            p_ops.into(),
            human_count(cost.ops),
        ]);
    }
    print_table("Table VIII: DART configurations under design constraints", &t);
    println!(
        "\nThe greedy is latency-major (paper \u{a7}VI-C2): it may pick a different \
         structural point than the paper within the same latency tier, but must \
         respect both bounds."
    );
    record_json("table8", &serde_json::to_value(&picks).unwrap());
}

/// One Table IX row: the paper's figures plus our implementation's storage
/// where that is a fixed structure (BO, ISB).
#[derive(Clone, Debug)]
pub struct Table9Row {
    /// The paper's row.
    pub spec: PrefetcherSpec,
    /// Measured storage of this repo's implementation, bytes.
    pub ours_bytes: Option<u64>,
}

/// Table IX next to our rule-based prefetchers' measured storage.
pub fn table9() -> Vec<Table9Row> {
    table_ix()
        .into_iter()
        .map(|spec| {
            let ours_bytes = match spec.name.as_str() {
                "BO" => Some(BestOffset::new().storage_bytes()),
                "ISB" => Some(Isb::new().storage_bytes()),
                _ => None,
            };
            Table9Row { spec, ours_bytes }
        })
        .collect()
}

pub(super) fn run_table9(_: &mut Session) {
    let rows = table9();
    let mut t = Table::new(&[
        "Prefetcher",
        "Storage (paper)",
        "Latency (paper)",
        "Table",
        "ML",
        "Mechanism",
        "Our impl storage",
    ]);
    for Table9Row { spec, ours_bytes } in &rows {
        let ours = match (ours_bytes, spec.name.as_str()) {
            (Some(bytes), _) => human_bytes(*bytes),
            (None, "DART") => "measured per run (exp fig12)".into(),
            (None, name) if name.ends_with("-I") => "-".into(),
            (None, _) => "model params x 4B".into(),
        };
        t.row(vec![
            spec.name.clone(),
            spec.storage_bytes.map_or("-".into(), human_bytes),
            if spec.latency_cycles == 0 { "0".into() } else { format!("~{}", spec.latency_cycles) },
            if spec.table_based { "yes" } else { "no" }.into(),
            if spec.ml_based { "yes" } else { "no" }.into(),
            spec.mechanism.clone(),
            ours,
        ]);
    }
    print_table("Table IX: prefetcher configurations", &t);
    let specs: Vec<_> = rows.iter().map(|r| serde_json::to_value(&r.spec).unwrap()).collect();
    record_json("table9", &serde_json::Value::Array(specs));
}

/// One point of a Fig. 10 sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostPoint {
    /// The swept parameter's value (`K` or `C`).
    pub param: usize,
    /// Eq. 22 latency, cycles.
    pub latency: u64,
    /// Eq. 23 storage, bytes.
    pub storage: u64,
}

/// Fig. 10 — Eq. 22/23 cost of the DART structure as `K` and `C` vary.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// `K` swept over 16..=1024 at `C = 2`.
    pub vs_k: Vec<CostPoint>,
    /// `C` swept over 1..=8 at `K = 128`.
    pub vs_c: Vec<CostPoint>,
}

/// Sweep `K` and `C` around the DART configuration.
pub fn fig10() -> Fig10 {
    let shape = ShapeParams::default();
    let base = PredictorConfig::dart();
    let point = |param: usize, cfg: PredictorConfig| CostPoint {
        param,
        latency: model_latency(&cfg),
        storage: model_storage_bytes(&cfg, &shape),
    };
    Fig10 {
        vs_k: [16usize, 32, 64, 128, 256, 512, 1024]
            .into_iter()
            .map(|k| point(k, PredictorConfig { k, ..base }))
            .collect(),
        vs_c: [1usize, 2, 4, 8]
            .into_iter()
            .map(|c| point(c, PredictorConfig { c, ..base }))
            .collect(),
    }
}

pub(super) fn run_fig10(_: &mut Session) {
    let r = fig10();
    let panel = |title: &str, axis: &str, points: &[CostPoint]| {
        let key: &str = &axis.to_ascii_lowercase();
        let mut t = Table::new(&[axis, "Latency (cycles)", "Storage"]);
        for p in points {
            t.row(vec![p.param.to_string(), p.latency.to_string(), human_bytes(p.storage)]);
        }
        print_table(title, &t);
        points
            .iter()
            .map(|p| serde_json::json!({key: p.param, "latency": p.latency, "storage": p.storage}))
            .collect::<Vec<_>>()
    };
    let vs_k = panel("Fig. 10a: cost vs prototypes K (C = 2)", "K", &r.vs_k);
    let vs_c = panel("Fig. 10b: cost vs subspaces C (K = 128)", "C", &r.vs_c);
    println!(
        "\nShape check (paper): latency is linear in log(K) and log(C); storage is \
         exponential (attention tables are K^2 per subspace)."
    );
    record_json("fig10", &serde_json::json!({"vs_k": vs_k, "vs_c": vs_c}));
}

/// Paper fidelity: the closed-form results against the numbers the paper
/// prints, with tolerances, so a refactor of the cost models or the
/// configurator cannot move the science unnoticed.
#[cfg(test)]
mod tests {
    use super::*;

    /// `ours` within `tol` (relative) of `paper`.
    fn within(ours: f64, paper: f64, tol: f64) -> bool {
        (ours / paper - 1.0).abs() <= tol
    }

    #[test]
    fn table5_reproduces_the_abstracts_ratios() {
        let r = table5();
        // Abstract: 170x over the large model, 9.4x over the distilled one.
        assert!(within(r.speedup_vs_teacher(), 170.0, 0.20), "{}", r.speedup_vs_teacher());
        assert!(within(r.speedup_vs_student(), 9.4, 0.15), "{}", r.speedup_vs_student());
        // Abstract: 99.99 % / 91.83 % of arithmetic operations removed. Our
        // systolic model counts ~4x the paper's student operations (Table V
        // prints both), hence the wider band on the second.
        assert!((r.op_reduction_vs_teacher_pct() - 99.99).abs() <= 0.01);
        assert!((r.op_reduction_vs_student_pct() - 91.83).abs() <= 7.0);
        // Table V's own cells (Eq. 22 / Eq. 20-21 and the systolic model).
        assert!(within(r.dart.latency_cycles as f64, 97.0, 0.10), "{:?}", r.dart);
        assert!(within(r.dart.ops as f64, 11_000.0, 0.05), "{:?}", r.dart);
        assert!(within(r.dart.storage_bytes as f64, 864_400.0, 0.15), "{:?}", r.dart);
        assert!(within(r.teacher.latency_cycles as f64, 16_500.0, 0.10), "{:?}", r.teacher);
        assert!(within(r.teacher.ops as f64, 98_300_000.0, 0.05), "{:?}", r.teacher);
        assert!(within(r.student.latency_cycles as f64, 908.0, 0.05), "{:?}", r.student);
    }

    #[test]
    fn table8_picks_respect_both_constraints_and_the_papers_latency_tier() {
        let picks = table8();
        let paper_latency = [57.0, 97.0, 191.0];
        assert_eq!(picks.iter().map(|p| p.name).collect::<Vec<_>>(), ["DART-S", "DART", "DART-L"]);
        for (pick, paper) in picks.iter().zip(paper_latency) {
            assert!(pick.cost.latency_cycles <= pick.constraints.latency_cycles, "{pick:?}");
            assert!(pick.cost.storage_bytes <= pick.constraints.storage_bytes, "{pick:?}");
            assert!(within(pick.cost.latency_cycles as f64, paper, 0.05), "{pick:?}");
            // The recorded cost is the Eq. 20-23 cost of the recorded config.
            assert_eq!(pick.cost, model_cost(&pick.config, &ShapeParams::default()));
        }
        // Looser constraints buy a strictly larger design.
        assert!(picks.windows(2).all(|w| w[0].cost.storage_bytes < w[1].cost.storage_bytes));
    }

    #[test]
    fn table9_dart_row_is_table_v_and_the_nn_baselines_are_orders_slower() {
        let rows = table9();
        let by_name = |name: &str| rows.iter().find(|r| r.spec.name == name).expect(name);
        let dart = table5().dart;
        let paper_dart = &by_name("DART").spec;
        assert!(within(dart.latency_cycles as f64, paper_dart.latency_cycles as f64, 0.10));
        assert!(within(dart.storage_bytes as f64, paper_dart.storage_bytes.unwrap() as f64, 0.15));
        // The premise of the paper: practical NN prefetchers sit 45x+ above DART.
        for nn in ["TransFetch", "Voyager"] {
            assert!(by_name(nn).spec.latency_cycles >= 45 * paper_dart.latency_cycles, "{nn}");
        }
        // Our rule-based baselines are the same size class as the paper's.
        for rule in ["BO", "ISB"] {
            let row = by_name(rule);
            let (ours, paper) = (row.ours_bytes.unwrap() as f64, row.spec.storage_bytes.unwrap());
            assert!((0.5..=2.0).contains(&(ours / paper as f64)), "{rule}: {ours} vs {paper}");
        }
        assert!(rows.iter().filter(|r| r.ours_bytes.is_some()).count() == 2);
    }

    #[test]
    fn fig10_latency_is_linear_in_log_k_and_log_c_and_storage_is_not() {
        let r = fig10();
        for sweep in [&r.vs_k, &r.vs_c] {
            // Every point doubles the parameter …
            assert!(sweep.windows(2).all(|w| w[1].param == 2 * w[0].param));
            // … and costs the same, positive number of extra cycles (Eq. 22).
            let step = sweep[1].latency - sweep[0].latency;
            assert!(step > 0);
            assert!(sweep.windows(2).all(|w| w[1].latency - w[0].latency == step), "{sweep:?}");
            // Storage at least doubles per doubling of K (Eq. 23: K^2
            // attention tables) and grows monotonically with C.
            assert!(sweep.windows(2).all(|w| w[1].storage > w[0].storage));
        }
        assert!(r.vs_k.windows(2).all(|w| w[1].storage > 2 * w[0].storage), "{:?}", r.vs_k);
        // Both sweeps pass through the DART point of Table V.
        let dart = table5().dart;
        for point in [r.vs_k[3], r.vs_c[1]] {
            assert_eq!((point.latency, point.storage), (dart.latency_cycles, dart.storage_bytes));
        }
    }
}
