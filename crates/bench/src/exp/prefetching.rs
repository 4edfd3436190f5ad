//! Fig. 12–14: three views of one prefetcher-evaluation matrix
//! ([`crate::prefetch_eval`]), which the session evaluates once however
//! many of them are asked for.

use super::Session;
use crate::prefetch_eval::{print_metric_table, PrefetchCell};
use crate::report::record_json;

/// One figure: a metric of the matrix, the paper's per-prefetcher means
/// and the shape the paper reads off it.
struct Figure {
    name: &'static str,
    title: &'static str,
    metric: fn(&PrefetchCell) -> f64,
    /// The metric is already in percentage points (IPC), not a fraction.
    pct_points: bool,
    paper_means: [(&'static str, f64); 9],
    shape_check: &'static str,
}

const FIGURES: [Figure; 3] = [
    Figure {
        name: "fig12",
        title: "Fig. 12: prefetch accuracy",
        metric: |c| c.accuracy,
        pct_points: false,
        paper_means: [
            ("BO", 0.894),
            ("ISB", 0.774), // read from the figure; the text highlights the others
            ("DART-S", 0.806),
            ("DART", 0.807),
            ("DART-L", 0.825),
            ("TransFetch", 0.786),
            ("TransFetch-I", 0.896),
            ("Voyager", 0.499),
            ("Voyager-I", 0.951),
        ],
        shape_check: "Shape check (paper): the ideal NN prefetchers top the chart; adding \
                      real latency collapses Voyager hardest (0.951 -> 0.499) and dents \
                      TransFetch; DART stays close to its ideal because its latency is tiny.",
    },
    Figure {
        name: "fig13",
        title: "Fig. 13: prefetch coverage",
        metric: |c| c.coverage,
        pct_points: false,
        paper_means: [
            ("BO", 0.461), // read from the figure
            ("ISB", 0.05),
            ("DART-S", 0.483),
            ("DART", 0.510),
            ("DART-L", 0.518),
            ("TransFetch", 0.144),
            ("TransFetch-I", 0.547),
            ("Voyager", 0.021),
            ("Voyager-I", 0.470),
        ],
        shape_check: "Shape check (paper): latency costs the practical NN prefetchers most of \
                      their coverage (TransFetch 0.547 -> 0.144, Voyager 0.470 -> 0.021); \
                      DART keeps coverage near its ideal.",
    },
    Figure {
        name: "fig14",
        title: "Fig. 14: IPC improvement over no-prefetch",
        metric: |c| c.ipc_improvement_pct,
        pct_points: true,
        paper_means: [
            ("BO", 31.5),
            ("ISB", 1.6),
            ("DART-S", 35.4),
            ("DART", 37.6),
            ("DART-L", 38.5),
            ("TransFetch", 4.5),
            ("TransFetch-I", 40.9),
            ("Voyager", 0.38),
            ("Voyager-I", 38.8), // DART-S underperforms Voyager-I by 3.4% per the text
        ],
        shape_check: "Shape check (paper): DART variants beat BO and crush the practical NN \
                      prefetchers (TransFetch 4.5%, Voyager 0.38%), landing a few points \
                      below the zero-latency ideals.",
    },
];

/// Print figure `FIGURES[index]` from the session's matrix (evaluating it
/// if this is the first figure asked for).
pub(super) fn print_figure(s: &mut Session, index: usize) {
    let fig = &FIGURES[index];
    print_metric_table(fig.title, s.matrix(), &fig.paper_means, fig.metric, fig.pct_points);
    println!("\n{}", fig.shape_check);
}

/// Fig. 12 / 13 / 14 (`index` 0 / 1 / 2): accuracy, coverage and IPC
/// improvement of the DART variants and all baselines.
pub(super) fn run_figure(s: &mut Session, index: usize) {
    print_figure(s, index);
    record_json(FIGURES[index].name, &serde_json::to_value(s.matrix()).unwrap());
}
