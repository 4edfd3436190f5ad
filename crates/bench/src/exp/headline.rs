//! The abstract's claims next to this repo's numbers. Every input is a
//! typed result of another experiment, taken from the session — computed
//! now if that experiment has not run in this process.

use super::analytic::table5;
use super::f1::mean;
use super::Session;
use crate::context::Scale;
use crate::report::{print_table, Table};

/// One row per claim: (claim, paper, ours).
pub fn headline(s: &mut Session) -> Table {
    let mut t = Table::new(&["Claim (paper abstract/§VII)", "Paper", "Ours"]);
    let mut claim = |what: &str, paper: &str, ours: String| {
        t.row(vec![what.into(), paper.into(), ours]);
    };

    let t5 = table5();
    claim("Accelerates the large model by", "170x", format!("{:.0}x", t5.speedup_vs_teacher()));
    claim("Accelerates the distilled model by", "9.4x", format!("{:.1}x", t5.speedup_vs_student()));
    claim(
        "Arithmetic ops removed vs large model",
        "99.99%",
        format!("{:.2}%", t5.op_reduction_vs_teacher_pct()),
    );
    claim(
        "Arithmetic ops removed vs distilled",
        "91.83%",
        format!("{:.2}%", t5.op_reduction_vs_student_pct()),
    );

    let t6 = s.table6();
    let (student, no_kd) = (mean(t6, |r| r.student), mean(t6, |r| r.student_no_kd));
    let t7 = s.table7();
    let (dart, no_ft) = (mean(t7, |r| r.dart), mean(t7, |r| r.dart_no_ft));
    claim(
        "F1 drop from tabularization (student -> DART)",
        "0.09 (0.783 -> 0.699)",
        format!("{:.3} ({student:.3} -> {dart:.3})", student - dart),
    );
    claim(
        "Fine-tuning F1 gain",
        "+5.75% rel (0.661 -> 0.699)",
        format!("{:+.1}% rel ({no_ft:.3} -> {dart:.3})", (dart / no_ft - 1.0) * 100.0),
    );
    claim("KD F1 gain (student vs no-KD)", "0.751 -> 0.783", format!("{no_kd:.3} -> {student:.3}"));

    let m = s.matrix();
    let ipc = |p: &str| m.mean(p, |c| c.ipc_improvement_pct);
    claim("DART IPC improvement", "37.6%", format!("{:.3}%", ipc("DART")));
    claim("DART over BO (IPC points)", "+6.1%", format!("{:+.1}%", ipc("DART") - ipc("BO")));
    claim(
        "DART over TransFetch (IPC points)",
        "+33.1%",
        format!("{:+.1}%", ipc("DART") - ipc("TransFetch")),
    );
    claim(
        "DART over Voyager (IPC points)",
        "+37.2%",
        format!("{:+.1}%", ipc("DART") - ipc("Voyager")),
    );
    let acc = |p: &str| m.mean(p, |c| c.accuracy) * 100.0;
    claim(
        "DART accuracy vs zero-latency attention ideal",
        "80.7% vs 89.6%",
        format!("{:.1}% vs {:.1}%", acc("DART"), acc("TransFetch-I")),
    );
    t
}

/// Headline reproduction summary: the paper's abstract-level claims next
/// to our measurements.
pub(super) fn run_headline(s: &mut Session) {
    let table = headline(s);
    let scale = match s.ctx.scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    print_table(&format!("Headline reproduction summary ({scale} scale)"), &table);
    println!(
        "\nThe F1 and prefetching rows are means over the first {} of the eight \
         workloads (DART_WORKLOADS); `exp list` is the per-experiment index.",
        s.ctx.workload_limit
    );
}
