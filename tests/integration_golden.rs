//! Golden-fixture regression test: two small trained `TabularModel`s
//! (deterministic seeds, no fine-tuning) — one per encoder: the default
//! hash tree and the exact-argmin ablation — are serialized to JSON under
//! `tests/fixtures/`, each with its predictions on a fixed synthetic
//! trace. Future layout or serialization refactors must keep loading the
//! fixtures and reproducing those predictions — this is the backstop that
//! caught-in-review changes to `TableArena`/`CodebookArena`/`HashTree`
//! serialization cannot silently slip past. A last test pins the training
//! path (teacher training, distillation, fine-tuned tabularization) by
//! hashes of its bits, since the fixtures never train.
//!
//! Regenerate (after an *intentional* format change) with:
//!
//! ```sh
//! DART_REGEN_FIXTURES=1 cargo test --test integration_golden
//! ```

use dart::core::config::TabularConfig;
use dart::core::distill::{distill, DistillConfig};
use dart::core::tabularize::tabularize;
use dart::core::TabularModel;
use dart::nn::matrix::Matrix;
use dart::nn::model::{AccessPredictor, ModelConfig, SequenceModel};
use dart::nn::train::{train_bce, Dataset, TrainConfig};
use dart::pq::EncoderKind;
use dart::trace::PreprocessConfig;

/// One golden model: its encoder and the two files that pin it.
struct Golden {
    encoder: EncoderKind,
    model: &'static str,
    predictions: &'static str,
}

macro_rules! fixture {
    ($name:literal) => {
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/", $name)
    };
}

/// One pair per encoder. The argmin pair is also what "the exact path is
/// bit for bit what it was" means: its bytes only change with the format.
const GOLDEN: [Golden; 2] = [
    Golden {
        encoder: EncoderKind::Argmin,
        model: fixture!("tabular_model.json"),
        predictions: fixture!("tabular_model_predictions.json"),
    },
    Golden {
        encoder: EncoderKind::HashTree,
        model: fixture!("tabular_model_hashtree.json"),
        predictions: fixture!("tabular_model_hashtree_predictions.json"),
    },
];

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

fn build_golden_model(encoder: EncoderKind) -> TabularModel {
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
    let tab_cfg = TabularConfig {
        k: 8,
        c: 2,
        encoder,
        fine_tune_epochs: 0,
        seed: 0x601D,
        ..Default::default()
    };
    tabularize(&student, &train, &tab_cfg).0
}

#[test]
fn golden_model_predictions_match_fixture() {
    let pre = golden_pre();
    let inputs = golden_inputs(&pre, 12);

    if std::env::var("DART_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(fixture!("")).unwrap();
        for golden in &GOLDEN {
            let model = build_golden_model(golden.encoder);
            let probs = model.predict_batch(&inputs);
            std::fs::write(golden.model, model.to_json()).unwrap();
            std::fs::write(golden.predictions, serde_json::to_string(&probs).unwrap()).unwrap();
        }
        return;
    }

    for golden in &GOLDEN {
        let encoder = golden.encoder;
        let json = std::fs::read_to_string(golden.model)
            .expect("fixture missing — regenerate with DART_REGEN_FIXTURES=1");
        let model = TabularModel::from_json(&json).expect("fixture must deserialize");
        let probs = model.predict_batch(&inputs);

        let expected: Matrix =
            serde_json::from_str(&std::fs::read_to_string(golden.predictions).unwrap())
                .expect("prediction fixture must deserialize");
        assert_eq!(probs.shape(), expected.shape(), "{encoder:?}: prediction shape drifted");
        // f32 values survive the JSON round trip exactly (printed as
        // shortest roundtrip f64), and the kernels are deterministic in
        // both debug and release. Compare raw bits, not f32 `==`: `==`
        // would let a +0.0/-0.0 flip (or a NaN) slip through the
        // bit-exactness guarantee.
        for (i, (got, want)) in probs.as_slice().iter().zip(expected.as_slice()).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{encoder:?}: prediction entry {i} drifted: {got} vs {want}"
            );
        }
    }
}

/// The fixture a golden model was written to, as stored, is what building
/// it again from its seeds serializes to: the fit itself (k-means, the
/// hash-tree splits, table construction) is pinned, not only the query.
#[test]
fn golden_models_rebuild_to_their_fixture_text() {
    for golden in &GOLDEN {
        let Some(json) = model_fixture_json(golden) else { continue };
        assert!(
            build_golden_model(golden.encoder).to_json() == json,
            "{:?}: rebuilding the golden model no longer gives the fixture's bytes",
            golden.encoder
        );
    }
}

/// A model fixture's text; `None` only in a regeneration run that has
/// not written it yet (the predictions test writes the fixtures).
fn model_fixture_json(golden: &Golden) -> Option<String> {
    match std::fs::read_to_string(golden.model) {
        Ok(json) => Some(json),
        Err(_) if std::env::var("DART_REGEN_FIXTURES").is_ok() => None,
        Err(e) => panic!("fixture missing ({e}) — regenerate with DART_REGEN_FIXTURES=1"),
    }
}

/// The serialized model itself round-trips exactly: guards accidental
/// lossy serde on the arena/codebook/hash-tree types.
#[test]
fn golden_model_json_roundtrip_is_stable() {
    for golden in &GOLDEN {
        let Some(json) = model_fixture_json(golden) else { continue };
        let model = TabularModel::from_json(&json).unwrap();
        let reserialized = model.to_json();
        let again = TabularModel::from_json(&reserialized).unwrap();
        // Two serialize->deserialize trips agree on every prediction.
        let pre = golden_pre();
        let inputs = golden_inputs(&pre, 3);
        assert_eq!(model.predict_batch(&inputs), again.predict_batch(&inputs));
    }
}

/// A model file is untrusted input: structural damage is an `Err` from
/// `from_json`, never a panic and never a model that loads and then trips
/// a kernel's shape assert on a shard worker at query time.
#[test]
fn damaged_model_files_are_rejected_at_load() {
    /// `json` minus the first array element after the first `key`.
    fn drop_first_entry(json: &str, key: &str) -> String {
        let start = json.find(key).unwrap_or_else(|| panic!("no {key} in fixture")) + key.len();
        let comma = start + json[start..].find(',').expect("array has several entries");
        format!("{}{}", &json[..start], &json[comma + 1..])
    }
    for golden in &GOLDEN {
        let Some(json) = model_fixture_json(golden) else { continue };
        let mut damaged = vec![
            ("codebook entry removed", drop_first_entry(&json, "\"dim_major\":[")),
            ("table entry removed", drop_first_entry(&json, "\"width\":8,\"data\":[")),
            // What every model file written before the dimension-major
            // layout looks like: same shape fields, prototype-major `data`.
            ("prototype-major field name", json.replace("\"dim_major\":", "\"data\":")),
            ("offsets shifted", json.replacen("\"offsets\":[0,16,32]", "\"offsets\":[0,15,32]", 1)),
        ];
        if golden.encoder == EncoderKind::HashTree {
            // A tree that would read outside its threshold array or its
            // subvector is a load error, not an index panic in `encode`.
            damaged.push(("threshold removed", drop_first_entry(&json, "\"thresholds\":[")));
            damaged.push((
                "split dimension out of range",
                json.replacen("\"split_dims\":[0,0,0]", "\"split_dims\":[0,3,0]", 1),
            ));
        }
        for (what, bad) in &damaged {
            assert_ne!(bad, &json, "{:?}, {what}: damage pattern did not apply", golden.encoder);
            assert!(TabularModel::from_json(bad).is_err(), "{:?}, {what}: loaded", golden.encoder);
        }
    }
}

/// FNV-1a over the bit patterns of a run of `f32`s.
fn fnv_f32_bits(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// FNV-1a over every parameter of `model`, in `visit_params` order.
fn params_hash(model: &mut impl SequenceModel) -> u64 {
    let mut hash = 0xcbf29ce484222325;
    model.visit_params(&mut |p| hash = fnv_f32_bits(hash, p.value.as_slice()));
    hash
}

/// The fixtures above tabularize an untrained student without fine-tuning,
/// so they never run a backward pass. This pins the training path itself:
/// `train_bce` on a tiny teacher, `distill` into a student, and
/// `tabularize` with fine-tuning, every weight compared as bits. Every
/// `Linear` forward, backward and attention product runs through the three
/// dense kernels, so a kernel that changes one output's float operations
/// (a fused multiply-add, a reassociated sum) changes these hashes. The
/// dimensions leave every `k % 4` tail in play (inputs 6, heads 10 wide,
/// FFN 34 wide).
#[test]
fn training_path_is_pinned_bit_for_bit() {
    let (input_dim, output_dim, seq_len, samples) = (6, 10, 4, 48);
    let inputs = Matrix::from_fn(samples * seq_len, input_dim, |r, c| {
        ((r * 37 + c * 11) % 23) as f32 / 23.0 - 0.5
    });
    let targets =
        Matrix::from_fn(samples, output_dim, |r, c| f32::from(u8::from((r * 7 + c * 3) % 5 == 0)));
    let data = Dataset::new(inputs, targets, seq_len);
    let train = TrainConfig { epochs: 2, batch_size: 16, ..Default::default() };

    let teacher_cfg =
        ModelConfig { input_dim, dim: 20, heads: 2, layers: 1, ffn_dim: 34, output_dim, seq_len };
    let mut teacher = AccessPredictor::new(teacher_cfg, 0x7EAC).expect("valid teacher config");
    train_bce(&mut teacher, &data, &train);

    let student_cfg =
        ModelConfig { input_dim, dim: 8, heads: 2, layers: 1, ffn_dim: 14, output_dim, seq_len };
    let distill_cfg = DistillConfig { train: train.clone(), ..Default::default() };
    let (mut student, _) = distill(&mut teacher, student_cfg, &data, &distill_cfg);

    let tab_cfg =
        TabularConfig { k: 8, c: 2, fine_tune_epochs: 2, seed: 0x7AB, ..Default::default() };
    let (model, _) = tabularize(&student, &data.inputs, &tab_cfg);

    let got = (params_hash(&mut teacher), params_hash(&mut student), model.fingerprint());
    assert_eq!(
        got,
        (0x1a82_2d38_c5f2_cb67, 0x2245_4fb1_4dcb_846b, 0x5a16_cf32_db0f_3c70),
        "the training path's bits moved (teacher params, student params, table fingerprint)"
    );
}
