//! Shared experiment context: scale selection, workload traces, LLC demand
//! streams, and train/test datasets.

use dart_nn::train::Dataset;
use dart_sim::{NullPrefetcher, SimConfig, Simulator};
use dart_trace::{build_dataset, spec_workloads, PreprocessConfig, TraceRecord, Workload};

use crate::env::{or_exit, parse_workloads};

/// Experiment scale (set via `DART_SCALE=quick|full`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes: minutes per experiment.
    Quick,
    /// Paper-faithful sizes.
    Full,
}

impl Scale {
    /// Interpret a `DART_SCALE` value: unset → `Quick`; anything but
    /// `quick` or `full` is an error (a typo must not quietly run the
    /// reduced sizes).
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!("DART_SCALE must be `quick` or `full`, got `{other}`")),
        }
    }

    /// Core-side trace length (loads) per workload.
    pub fn trace_len(&self) -> usize {
        match self {
            Scale::Quick => 30_000,
            Scale::Full => 200_000,
        }
    }

    /// Preprocessing configuration at this scale.
    pub fn preprocess(&self) -> PreprocessConfig {
        match self {
            // Look-forward must exceed the widest stream interleave (bwaves
            // runs 16 streams round-robin) or its labels vanish.
            Scale::Quick => PreprocessConfig {
                seq_len: 8,
                addr_segments: 5,
                seg_bits: 6,
                pc_segments: 1,
                delta_range: 32,
                lookforward: 20,
            },
            Scale::Full => PreprocessConfig { lookforward: 24, ..PreprocessConfig::default() },
        }
    }

    /// Dataset sampling stride over the LLC stream.
    pub fn dataset_stride(&self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 2,
        }
    }

    /// Cap on training samples (keeps quick-mode training snappy).
    pub fn max_train_samples(&self) -> usize {
        match self {
            Scale::Quick => 2_500,
            Scale::Full => 20_000,
        }
    }
}

/// One prepared workload: core trace, LLC demand stream, and datasets.
pub struct PreparedWorkload {
    /// Workload definition.
    pub workload: Workload,
    /// Core-side load trace fed to the simulator.
    pub trace: Vec<TraceRecord>,
    /// LLC demand stream (what the prefetcher and predictor see).
    pub llc_trace: Vec<TraceRecord>,
    /// Training split (prefix of the LLC stream).
    pub train: Dataset,
    /// Held-out split.
    pub test: Dataset,
}

/// Everything an experiment binary needs.
pub struct ExperimentContext {
    /// Active scale.
    pub scale: Scale,
    /// Simulator with Table III parameters.
    pub sim: Simulator,
    /// Preprocessing configuration.
    pub pre: PreprocessConfig,
    /// How many of the eight Table IV workloads the training-heavy
    /// experiments cover (`DART_WORKLOADS`, default all 8).
    pub workload_limit: usize,
}

impl ExperimentContext {
    /// Build from `DART_SCALE` and `DART_WORKLOADS`; a malformed value of
    /// either exits with status 2 and the accepted values.
    pub fn from_env() -> ExperimentContext {
        let scale = or_exit(Scale::parse(std::env::var("DART_SCALE").ok().as_deref()));
        let workload_limit =
            or_exit(parse_workloads(std::env::var("DART_WORKLOADS").ok().as_deref()));
        ExperimentContext {
            scale,
            sim: Simulator::new(SimConfig::table_iii()),
            pre: scale.preprocess(),
            workload_limit,
        }
    }

    /// The first `workload_limit` Table IV workloads.
    pub fn workloads(&self) -> Vec<Workload> {
        spec_workloads().into_iter().take(self.workload_limit).collect()
    }

    /// Generate and prepare one workload (deterministic in `seed`).
    pub fn prepare(&self, workload: &Workload, seed: u64) -> PreparedWorkload {
        let trace = workload.generate(self.scale.trace_len(), seed);
        let result = self.sim.run(&trace, &mut NullPrefetcher, true);
        let llc_trace = result.llc_trace.expect("llc trace recorded");

        // Train on the first 60% of the LLC stream, test on the rest —
        // chronological, as a deployed prefetcher would be trained.
        let split = llc_trace.len() * 6 / 10;
        let stride = self.scale.dataset_stride();
        let mut train = build_dataset(&llc_trace[..split], &self.pre, stride);
        let test = build_dataset(&llc_trace[split..], &self.pre, stride);

        // Cap training size for tractability.
        let cap = self.scale.max_train_samples();
        if train.len() > cap {
            let t = self.pre.seq_len;
            train = Dataset::new(
                train.inputs.slice_rows(0, cap * t),
                train.targets.slice_rows(0, cap),
                t,
            );
        }
        PreparedWorkload { workload: workload.clone(), trace, llc_trace, train, test }
    }

    /// Prepare all eight Table IV workloads.
    pub fn prepare_all(&self, seed: u64) -> Vec<PreparedWorkload> {
        spec_workloads()
            .iter()
            .enumerate()
            .map(|(i, w)| self.prepare(w, seed.wrapping_add(i as u64 * 101)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_trace::workload_by_name;

    #[test]
    fn dart_scale_values_parse_strictly() {
        for quick in [None, Some("quick"), Some(" Quick\n")] {
            assert_eq!(Scale::parse(quick), Ok(Scale::Quick), "{quick:?}");
        }
        for full in ["full", "FULL"] {
            assert_eq!(Scale::parse(Some(full)), Ok(Scale::Full), "{full:?}");
        }
        for bad in ["", "ful", "paper", "1"] {
            let err = Scale::parse(Some(bad)).expect_err(bad);
            assert!(err.contains("DART_SCALE") && err.contains("`quick` or `full`"), "{err}");
        }
        assert!(Scale::Full.trace_len() > Scale::Quick.trace_len());
    }

    #[test]
    fn prepare_builds_consistent_datasets() {
        let ctx = ExperimentContext {
            scale: Scale::Quick,
            sim: Simulator::new(dart_sim::SimConfig::small()),
            pre: Scale::Quick.preprocess(),
            workload_limit: 8,
        };
        let w = workload_by_name("libquantum").unwrap();
        let mut prepared = ctx.prepare(&w, 42);
        prepared.trace.truncate(0); // only checking dataset invariants
        assert!(!prepared.llc_trace.is_empty());
        assert!(!prepared.train.is_empty());
        assert!(!prepared.test.is_empty());
        assert_eq!(prepared.train.inputs.cols(), ctx.pre.input_dim());
        assert_eq!(prepared.train.targets.cols(), ctx.pre.output_dim());
    }
}
