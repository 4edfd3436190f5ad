//! The trace-only experiments: Table IV and Fig. 7 describe the eight
//! synthetic workloads' LLC streams — generation plus one simulator pass
//! each, no training.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use dart_trace::stats::{pattern_cloud, PatternPoint};
use dart_trace::TraceStats;

use super::Session;
use crate::context::ExperimentContext;
use crate::report::{human_count, print_table, record_json, Table};

/// Paper Table IV values: (app, #address, #page, #delta), in thousands.
const PAPER_TABLE4: [(&str, f64, f64, f64); 8] = [
    ("410.bwaves", 236.5, 3.7, 14.4),
    ("433.milc", 170.7, 19.8, 15.8),
    ("437.leslie3d", 104.3, 1.7, 3.6),
    ("462.libquantum", 347.8, 5.4, 0.5),
    ("602.gcc", 195.8, 3.4, 4.9),
    ("605.mcf", 176.0, 3.7, 207.7),
    ("619.lbm", 121.8, 1.9, 1.2),
    ("621.wrf", 188.5, 3.3, 13.7),
];

/// LLC-stream statistics of every workload, in Table IV order.
pub fn table4(ctx: &ExperimentContext) -> Vec<(String, TraceStats)> {
    ctx.prepare_all(0x7AB1E4)
        .iter()
        .map(|p| (p.workload.name.clone(), TraceStats::compute(&p.llc_trace)))
        .collect()
}

/// Table IV — unique block addresses, pages and consecutive deltas of each
/// synthetic workload's LLC stream, next to the paper's SPEC numbers.
pub(super) fn run_table4(s: &mut Session) {
    let mut t = Table::new(&[
        "Application",
        "#Addr (paper)",
        "#Addr (ours)",
        "#Page (paper)",
        "#Page (ours)",
        "#Delta (paper)",
        "#Delta (ours)",
    ]);
    let mut records = Vec::new();
    for ((app, stats), (name, pa, pp, pd)) in table4(&s.ctx).iter().zip(PAPER_TABLE4) {
        assert_eq!(app, name);
        t.row(vec![
            name.into(),
            format!("{pa:.1}K"),
            human_count(stats.unique_blocks as u64),
            format!("{pp:.1}K"),
            human_count(stats.unique_pages as u64),
            format!("{pd:.1}K"),
            human_count(stats.unique_deltas as u64),
        ]);
        records.push(serde_json::json!({
            "app": name,
            "paper": {"addr_k": pa, "page_k": pp, "delta_k": pd},
            "ours": {
                "addr": stats.unique_blocks,
                "page": stats.unique_pages,
                "delta": stats.unique_deltas,
                "llc_accesses": stats.accesses,
            },
        }));
    }
    print_table(
        &format!(
            "Table IV: LLC trace statistics (scale: {:?}, {} loads/workload)",
            s.ctx.scale,
            s.ctx.scale.trace_len()
        ),
        &t,
    );
    println!(
        "\nNote: absolute counts scale with trace length; the orderings the paper \
         reasons about (mcf >> others in deltas; milc >> others in pages; \
         libquantum fewest deltas) are the reproduction target."
    );
    record_json("table4", &serde_json::Value::Array(records));
}

/// The (instruction, page, delta) scatter cloud of every workload.
pub fn fig7(ctx: &ExperimentContext) -> Vec<(String, Vec<PatternPoint>)> {
    ctx.prepare_all(0xF167)
        .iter()
        .map(|p| (p.workload.name.clone(), pattern_cloud(&p.llc_trace, 2_000, 256)))
        .collect()
}

/// Fig. 7 — memory-access-pattern visualization: writes each workload's
/// cloud to CSV under `target/experiments/fig7/` and prints a coarse ASCII
/// density map.
pub(super) fn run_fig7(s: &mut Session) {
    let out_dir = PathBuf::from("target/experiments/fig7");
    fs::create_dir_all(&out_dir).expect("create output dir");

    for (name, cloud) in fig7(&s.ctx) {
        let path = out_dir.join(format!("{}.csv", name.replace('.', "_")));
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "instr_frac,page_frac,delta_frac").unwrap();
        for pt in &cloud {
            writeln!(f, "{:.4},{:.4},{:.4}", pt.instr_frac, pt.page_frac, pt.delta_frac).unwrap();
        }

        // ASCII density map: x = time, y = page rank.
        const W: usize = 64;
        const H: usize = 12;
        let mut grid = [[0u32; W]; H];
        for pt in &cloud {
            let x = ((pt.instr_frac * (W - 1) as f64) as usize).min(W - 1);
            let y = ((pt.page_frac * (H - 1) as f64) as usize).min(H - 1);
            grid[y][x] += 1;
        }
        println!("\n{name} (pages vs time; CSV: {})", path.display());
        for row in grid.iter().rev() {
            let line: String = row
                .iter()
                .map(|&c| match c {
                    0 => ' ',
                    1..=2 => '.',
                    3..=6 => 'o',
                    _ => '#',
                })
                .collect();
            println!("|{line}|");
        }
    }
    println!(
        "\nEach cloud is the Fig. 7 scatter: streaming apps show diagonal sweeps, \
         milc fills the page axis, mcf scatters uniformly (its deltas are unique)."
    );
}
