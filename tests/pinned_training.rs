//! Model-level pin of a recorded seed run: trains ADPA on a fixed replica
//! with a fixed seed and compares the resulting test accuracy and a sample
//! of eval-mode logits *bitwise* against constants recorded when the lane
//! microkernels landed (DESIGN.md §14).
//!
//! This is the guard the kernel work is not allowed to break silently: any
//! change to a kernel's floating-point op order — a reassociated fold, a
//! different blocking, a new reduction tree — shows up here as a bit
//! mismatch, at the level users observe (training results), not just in
//! kernel unit tests. By the amud-par determinism contract the pins hold
//! at every `AMUD_THREADS`, and ci.sh runs them at 1 and 4.
//!
//! After an *intentional* numerics change, re-record with:
//!
//! ```text
//! AMUD_PIN_BLESS=1 cargo test --test pinned_training -- --nocapture
//! ```
//!
//! and paste the printed constants below (then say so in the PR: a pin
//! refresh is a semver-visible numerics change).

use amud_repro::core::{paradigm, Adpa, AdpaConfig};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::train::{train, GraphData, Model, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `result.test_acc.to_bits()` of the recorded run (`f64`).
const PINNED_TEST_ACC_BITS: u64 = 0x3fe97dd49c34115b;
/// `to_bits()` of twelve eval-mode logits of the recorded run: the first
/// four entries, four from the middle of the matrix, and the last four.
const PINNED_LOGIT_BITS: [u32; 12] = [
    0x405c35f5, 0x3fbf5b76, 0xbf155ad2, 0xbfadccc6, 0xbf7ed05f, 0xbcf3e5f0, 0xbe5b29f8, 0x3fb2b830,
    0x3f24dd0a, 0xbf5f0597, 0xbf878b5a, 0x3fa8d438,
];

fn sample_indices(len: usize) -> [usize; 12] {
    let mid = len / 2;
    [0, 1, 2, 3, mid, mid + 1, mid + 2, mid + 3, len - 4, len - 3, len - 2, len - 1]
}

#[test]
fn training_results_match_the_recorded_seed_run() {
    let d = replica("cora_ml", ReplicaScale::tiny(), 0);
    let data = GraphData::from_dataset(&d).expect("replica bundle is well-formed");
    let (prepared, _, _) = paradigm::prepare_topology(&data);
    let mut model = Adpa::new(&prepared, AdpaConfig::default(), 0).expect("default config");
    let cfg =
        TrainConfig { epochs: 25, patience: 0, lr: 0.01, weight_decay: 5e-4, ..Default::default() };
    let result = train(&mut model, &prepared, cfg, 0).expect("training converges");

    // Deterministic eval-mode forward (dropout off; the rng is unused but
    // the Model API threads one through).
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape = amud_repro::nn::Tape::new();
    let out = Model::forward(&model, &mut tape, &prepared, false, &mut rng);
    let logits = tape.value(out);
    let flat = logits.as_slice();
    assert!(flat.len() >= 16, "logit matrix unexpectedly small: {}", flat.len());
    let sampled: Vec<u32> = sample_indices(flat.len()).iter().map(|&i| flat[i].to_bits()).collect();

    if std::env::var("AMUD_PIN_BLESS").is_ok() {
        println!("const PINNED_TEST_ACC_BITS: u64 = {:#018x};", result.test_acc.to_bits());
        println!("const PINNED_LOGIT_BITS: [u32; 12] = [");
        for b in &sampled {
            println!("    {b:#010x},");
        }
        println!("];");
        return;
    }

    assert_eq!(
        result.test_acc.to_bits(),
        PINNED_TEST_ACC_BITS,
        "test_acc drifted from the recorded run: {} (bits {:#010x})",
        result.test_acc,
        result.test_acc.to_bits()
    );
    assert_eq!(sampled, PINNED_LOGIT_BITS.to_vec(), "eval logits drifted from the recorded run");
}
