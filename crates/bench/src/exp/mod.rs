//! The paper's evaluation (§VII), one experiment per table or figure.
//!
//! [`REGISTRY`] lists every experiment in paper order; the `exp` binary
//! runs the ones named on its command line inside one [`Session`], which
//! computes what several of them share — the Fig. 12–14 prefetch matrix
//! and the Table VI / VII F1 rows the headline summary draws on — at most
//! once per process. Each experiment is a typed computation (`table5()`,
//! `Session::matrix()`, …) plus a `run_*` function that prints it next to
//! the paper's values and records it with [`crate::record_json`].

pub mod analytic;
pub mod f1;
pub mod headline;
pub mod prefetching;
pub mod traces;

use self::analytic::{run_fig10, run_table3, run_table5, run_table8, run_table9};
use self::f1::{run_ablations, run_fig11, run_fig8, run_fig9, run_table6, run_table7};
use self::f1::{FtRow, KdRow};
use self::headline::run_headline;
use self::prefetching::run_figure;
use self::traces::{run_fig7, run_table4};
use crate::context::ExperimentContext;
use crate::prefetch_eval::{run_matrix, PrefetchMatrix};

/// One entry of the experiment index.
pub struct Experiment {
    /// Command-line name.
    pub name: &'static str,
    /// The paper artefact it regenerates.
    pub artefact: &'static str,
    /// Compute, print and record it.
    pub run: fn(&mut Session),
}

/// Every experiment, in the order the paper presents its artefacts.
pub static REGISTRY: [Experiment; 17] = [
    Experiment { name: "table3", artefact: "Table III: simulation parameters", run: run_table3 },
    Experiment { name: "table4", artefact: "Table IV: LLC trace statistics", run: run_table4 },
    Experiment { name: "fig7", artefact: "Fig. 7: access-pattern clouds", run: run_fig7 },
    Experiment { name: "table5", artefact: "Table V: model cost (Eq. 20-23)", run: run_table5 },
    Experiment { name: "table6", artefact: "Table VI: F1 with/without KD", run: run_table6 },
    Experiment { name: "table7", artefact: "Table VII: F1 with/without FT", run: run_table7 },
    Experiment { name: "fig8", artefact: "Fig. 8: F1 vs prototypes K", run: run_fig8 },
    Experiment { name: "fig9", artefact: "Fig. 9: F1 vs subspaces C", run: run_fig9 },
    Experiment { name: "fig10", artefact: "Fig. 10: latency/storage vs K, C", run: run_fig10 },
    Experiment { name: "fig11", artefact: "Fig. 11: layer-wise cosine similarity", run: run_fig11 },
    Experiment { name: "table8", artefact: "Table VIII: configurator picks", run: run_table8 },
    Experiment { name: "table9", artefact: "Table IX: prefetcher configurations", run: run_table9 },
    Experiment { name: "fig12", artefact: "Fig. 12: prefetch accuracy", run: |s| run_figure(s, 0) },
    Experiment { name: "fig13", artefact: "Fig. 13: prefetch coverage", run: |s| run_figure(s, 1) },
    Experiment { name: "fig14", artefact: "Fig. 14: IPC improvement", run: |s| run_figure(s, 2) },
    Experiment { name: "ablations", artefact: "design-choice ablations (F1)", run: run_ablations },
    Experiment { name: "headline", artefact: "the abstract's claims vs ours", run: run_headline },
];

/// The computations that train networks, as plain function values so the
/// harness tests can count calls on instant stand-ins.
#[derive(Clone, Copy)]
struct Trainers {
    matrix: fn(&ExperimentContext) -> PrefetchMatrix,
    table6: fn(&ExperimentContext) -> Vec<KdRow>,
    table7: fn(&ExperimentContext) -> Vec<FtRow>,
}

/// One `exp` invocation: the context every experiment reads, and the
/// results more than one of them needs.
pub struct Session {
    /// Scale, simulator, preprocessing and workload limit.
    pub ctx: ExperimentContext,
    trainers: Trainers,
    matrix: Option<PrefetchMatrix>,
    /// How many times this session evaluated the matrix (0 or 1).
    matrix_evals: usize,
    table6: Option<Vec<KdRow>>,
    table7: Option<Vec<FtRow>>,
}

impl Session {
    /// An empty session over `ctx`.
    pub fn new(ctx: ExperimentContext) -> Session {
        let trainers = Trainers { matrix: run_matrix, table6: f1::table6, table7: f1::table7 };
        Session { ctx, trainers, matrix: None, matrix_evals: 0, table6: None, table7: None }
    }

    /// The Fig. 12–14 prefetch matrix, evaluated on first use.
    pub fn matrix(&mut self) -> &PrefetchMatrix {
        let Session { ctx, trainers, matrix, matrix_evals, .. } = self;
        matrix.get_or_insert_with(|| {
            *matrix_evals += 1;
            eprintln!("[exp] prefetch matrix: evaluation {matrix_evals}");
            (trainers.matrix)(ctx)
        })
    }

    /// Table VI rows, trained on first use.
    pub fn table6(&mut self) -> &[KdRow] {
        let compute = self.trainers.table6;
        self.table6.get_or_insert_with(|| compute(&self.ctx))
    }

    /// Table VII rows, trained on first use.
    pub fn table7(&mut self) -> &[FtRow] {
        let compute = self.trainers.table7;
        self.table7.get_or_insert_with(|| compute(&self.ctx))
    }
}

/// Resolve experiment names (`all` = every one, in paper order).
pub fn resolve(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    match args {
        [] => Err("usage: exp <name>... | all | list".into()),
        [only] if only == "all" => Ok(REGISTRY.iter().collect()),
        names => names
            .iter()
            .map(|name| {
                REGISTRY
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment `{name}`"))
            })
            .collect(),
    }
}

/// The per-experiment index `exp list` prints.
pub fn listing() -> String {
    let mut out = String::from("experiments, in paper order (`all` runs every one):\n");
    for e in &REGISTRY {
        out.push_str(&format!("  {:<10} {}\n", e.name, e.artefact));
    }
    out.push_str(
        "table3 table5 table8 table9 fig10 are closed-form (instant); table4 fig7 generate \
         traces (seconds); the rest train networks (minutes per workload at quick scale).\n\
         environment: DART_SCALE=quick|full (default quick), DART_WORKLOADS=1..8 (default 8: \
         how many workloads the experiments that train cover)\n",
    );
    out
}

/// The `exp` binary: returns the process exit status (2 = bad usage).
pub fn run_cli(args: &[String]) -> i32 {
    if args == ["list"] {
        print!("{}", listing());
        return 0;
    }
    match resolve(args) {
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", listing());
            2
        }
        Ok(experiments) => {
            let mut session = Session::new(ExperimentContext::from_env());
            for e in experiments {
                eprintln!("[exp] {} ({})", e.name, e.artefact);
                (e.run)(&mut session);
            }
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;
    use crate::prefetch_eval::PrefetchCell;
    use dart_sim::{SimConfig, Simulator};

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn names(resolved: Vec<&'static Experiment>) -> Vec<&'static str> {
        resolved.iter().map(|e| e.name).collect()
    }

    #[test]
    fn registry_names_are_unique_and_all_visits_each_once_in_paper_order() {
        let all = names(resolve(&args(&["all"])).unwrap());
        assert_eq!(
            all,
            [
                "table3",
                "table4",
                "fig7",
                "table5",
                "table6",
                "table7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "table8",
                "table9",
                "fig12",
                "fig13",
                "fig14",
                "ablations",
                "headline"
            ]
        );
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), REGISTRY.len(), "duplicate experiment name");
    }

    #[test]
    fn names_resolve_in_the_order_given_and_unknown_ones_are_errors() {
        assert_eq!(names(resolve(&args(&["fig14", "table3"])).unwrap()), ["fig14", "table3"]);
        for bad in [&["tabel5"][..], &["table3", "Table5"], &["all", "list"], &[]] {
            assert!(resolve(&args(bad)).is_err(), "{bad:?}");
        }
        let err = resolve(&args(&["table3", "nope"])).err().unwrap();
        assert!(err.contains("`nope`"), "{err}");
        for e in &REGISTRY {
            assert!(listing().contains(e.name) && listing().contains(e.artefact));
        }
    }

    fn stub_matrix(_: &ExperimentContext) -> PrefetchMatrix {
        let cell = |prefetcher: &str, accuracy: f64, ipc: f64| PrefetchCell {
            workload: "410.bwaves".into(),
            prefetcher: prefetcher.into(),
            accuracy,
            coverage: 0.5,
            ipc_improvement_pct: ipc,
            storage_bytes: 0,
            latency_cycles: 0,
        };
        PrefetchMatrix {
            cells: vec![
                cell("BO", 0.9, 30.0),
                cell("DART", 0.8, 36.5),
                cell("TransFetch", 0.7, 4.0),
                cell("TransFetch-I", 0.9, 40.0),
                cell("Voyager", 0.5, 0.5),
            ],
        }
    }

    fn stub_table6(_: &ExperimentContext) -> Vec<KdRow> {
        vec![KdRow { app: "410.bwaves".into(), teacher: 0.9, student_no_kd: 0.7, student: 0.8 }]
    }

    fn stub_table7(_: &ExperimentContext) -> Vec<FtRow> {
        vec![FtRow { app: "410.bwaves".into(), dart_no_ft: 0.6, dart: 0.75, student: 0.8 }]
    }

    /// A session whose training computations are instant stand-ins.
    fn stub_session() -> Session {
        let ctx = ExperimentContext {
            scale: Scale::Quick,
            sim: Simulator::new(SimConfig::small()),
            pre: Scale::Quick.preprocess(),
            workload_limit: 1,
        };
        let mut session = Session::new(ctx);
        session.trainers =
            Trainers { matrix: stub_matrix, table6: stub_table6, table7: stub_table7 };
        session
    }

    /// Three figures named in one invocation cost one evaluation.
    #[test]
    fn fig12_fig13_fig14_share_one_matrix_evaluation() {
        let mut session = stub_session();
        for figure in 0..3 {
            prefetching::print_figure(&mut session, figure);
        }
        assert_eq!(session.matrix_evals, 1);
    }

    #[test]
    fn headline_on_an_empty_session_runs_its_inputs() {
        let mut session = stub_session();
        let table = headline::headline(&mut session);
        assert_eq!(session.matrix_evals, 1);
        assert_eq!(table.rows.len(), 12, "every claim has a row");
        for row in &table.rows {
            assert!(!row[2].is_empty() && !row[2].contains("run exp"), "{row:?}");
        }
        let ours = |claim: &str| {
            let row = table.rows.iter().find(|r| r[0].contains(claim)).expect(claim);
            row[2].clone()
        };
        // Table V is closed-form; Tables VI/VII and the matrix are the stand-ins.
        assert_eq!(ours("Accelerates the large model"), "197x");
        assert_eq!(ours("F1 drop from tabularization"), "0.050 (0.800 -> 0.750)");
        assert_eq!(ours("KD F1 gain"), "0.700 -> 0.800");
        assert_eq!(ours("DART over BO"), "+6.5%");
        // Asking again recomputes nothing.
        headline::headline(&mut session);
        assert_eq!(session.matrix_evals, 1);
    }
}
