//! Golden-fixture regression test: a small trained `TabularModel`
//! (deterministic seeds, no fine-tuning) is serialized to JSON under
//! `tests/fixtures/`, together with its predictions on a fixed synthetic
//! trace. Future layout or serialization refactors must keep loading the
//! fixture and reproducing those predictions — this is the backstop that
//! caught-in-review changes to `TableArena`/`CodebookArena`/`HashTree`
//! serialization cannot silently slip past.
//!
//! Regenerate (after an *intentional* format change) with:
//!
//! ```sh
//! DART_REGEN_FIXTURES=1 cargo test --test integration_golden
//! ```

use dart::core::config::TabularConfig;
use dart::core::tabularize::tabularize;
use dart::core::TabularModel;
use dart::nn::matrix::Matrix;
use dart::nn::model::{AccessPredictor, ModelConfig};
use dart::trace::PreprocessConfig;

const MODEL_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tabular_model.json");
const PREDICTIONS_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tabular_model_predictions.json");

fn golden_pre() -> PreprocessConfig {
    PreprocessConfig {
        seq_len: 4,
        addr_segments: 3,
        seg_bits: 4,
        pc_segments: 1,
        delta_range: 4,
        lookforward: 4,
    }
}

/// The fixed synthetic trace: pure arithmetic in `(row, col)`, so the
/// inputs need no storage and no RNG compatibility guarantees.
fn golden_inputs(pre: &PreprocessConfig, samples: usize) -> Matrix {
    Matrix::from_fn(samples * pre.seq_len, pre.input_dim(), |r, c| {
        ((r * 37 + c * 11) % 23) as f32 / 23.0
    })
}

fn build_golden_model() -> TabularModel {
    let pre = golden_pre();
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 8,
        heads: 2,
        layers: 1,
        ffn_dim: 16,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, 0x601D).expect("valid golden config");
    let train = golden_inputs(&pre, 50);
    let tab_cfg =
        TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, seed: 0x601D, ..Default::default() };
    tabularize(&student, &train, &tab_cfg).0
}

#[test]
fn golden_model_predictions_match_fixture() {
    let pre = golden_pre();
    let inputs = golden_inputs(&pre, 12);

    if std::env::var("DART_REGEN_FIXTURES").is_ok() {
        let model = build_golden_model();
        let probs = model.predict_batch(&inputs);
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).unwrap();
        std::fs::write(MODEL_FIXTURE, model.to_json()).unwrap();
        std::fs::write(PREDICTIONS_FIXTURE, serde_json::to_string(&probs).unwrap()).unwrap();
        return;
    }

    let json = std::fs::read_to_string(MODEL_FIXTURE)
        .expect("fixture missing — regenerate with DART_REGEN_FIXTURES=1");
    let model = TabularModel::from_json(&json).expect("fixture must deserialize");
    let probs = model.predict_batch(&inputs);

    let expected: Matrix =
        serde_json::from_str(&std::fs::read_to_string(PREDICTIONS_FIXTURE).unwrap())
            .expect("prediction fixture must deserialize");
    assert_eq!(probs.shape(), expected.shape(), "prediction shape drifted");
    // f32 values survive the JSON round trip exactly (printed as shortest
    // roundtrip f64), and the kernels are deterministic in both debug and
    // release. Compare raw bits, not f32 `==`: `==` would let a +0.0/-0.0
    // flip (or a NaN) slip through the bit-exactness guarantee.
    for (i, (got, want)) in probs.as_slice().iter().zip(expected.as_slice()).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "prediction entry {i} drifted: {got} vs {want}");
    }
}

/// The model fixture's text; `None` only in a regeneration run that has
/// not written it yet (the predictions test writes the fixture).
fn model_fixture_json() -> Option<String> {
    match std::fs::read_to_string(MODEL_FIXTURE) {
        Ok(json) => Some(json),
        Err(_) if std::env::var("DART_REGEN_FIXTURES").is_ok() => None,
        Err(e) => panic!("fixture missing ({e}) — regenerate with DART_REGEN_FIXTURES=1"),
    }
}

/// The serialized model itself round-trips exactly: guards accidental
/// lossy serde on the arena/codebook/hash-tree types.
#[test]
fn golden_model_json_roundtrip_is_stable() {
    let Some(json) = model_fixture_json() else { return };
    let model = TabularModel::from_json(&json).unwrap();
    let reserialized = model.to_json();
    let again = TabularModel::from_json(&reserialized).unwrap();
    // Two serialize->deserialize trips agree on every prediction.
    let pre = golden_pre();
    let inputs = golden_inputs(&pre, 3);
    assert_eq!(model.predict_batch(&inputs), again.predict_batch(&inputs));
}

/// A model file is untrusted input: structural damage is an `Err` from
/// `from_json`, never a panic and never a model that loads and then trips
/// a kernel's shape assert on a shard worker at query time.
#[test]
fn damaged_model_files_are_rejected_at_load() {
    let Some(json) = model_fixture_json() else { return };
    /// `json` minus the first array element after the first `key`.
    fn drop_first_entry(json: &str, key: &str) -> String {
        let start = json.find(key).unwrap_or_else(|| panic!("no {key} in fixture")) + key.len();
        let comma = start + json[start..].find(',').expect("array has several entries");
        format!("{}{}", &json[..start], &json[comma + 1..])
    }
    let damaged = [
        ("codebook entry removed", drop_first_entry(&json, "\"dim_major\":[")),
        ("table entry removed", drop_first_entry(&json, "\"width\":8,\"data\":[")),
        // What every model file written before the dimension-major layout
        // looks like: same shape fields, prototype-major `data`.
        ("prototype-major field name", json.replace("\"dim_major\":", "\"data\":")),
        ("offsets shifted", json.replacen("\"offsets\":[0,16,32]", "\"offsets\":[0,15,32]", 1)),
    ];
    for (what, bad) in &damaged {
        assert_ne!(bad, &json, "{what}: damage pattern did not apply");
        assert!(TabularModel::from_json(bad).is_err(), "{what}: loaded");
    }
}
