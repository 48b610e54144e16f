//! Property tests over the snapshot format's integrity guarantees
//! (DESIGN.md §13.2): for ANY byte-level damage — bit flips anywhere,
//! truncation at any point, arbitrary garbage — decoding either
//! reproduces the original snapshot exactly or fails with a typed
//! [`amud_serve::SnapshotError`]. There is no third outcome: no panic,
//! and never a silently different model.

use amud_quant::{Precision, QuantSpec};
use amud_serve::snapshot::{decode_snapshot, encode_snapshot, Snapshot};
use amud_serve::synthetic::synthetic_snapshot;
use proptest::prelude::*;

/// A mixed-precision (int8 features, f32 weights) snapshot — every
/// payload layout of the snapshot format at once.
fn quantized_fixture(seed: u64) -> Snapshot {
    synthetic_snapshot(seed, 6, 3, 2, 2, 4, 0)
        .requantized(QuantSpec { features: Precision::I8, weights: Precision::F32 })
}

proptest! {
    #[test]
    fn quantized_mutation_roundtrips_or_is_rejected(
        seed in 0u64..10_000,
        n_mut in 1usize..8,
    ) {
        let original = quantized_fixture(7);
        let bytes = encode_snapshot(&original);
        let corrupt = amud_train::faults::corrupt_binary(&bytes, seed, n_mut);
        match decode_snapshot(&corrupt) {
            Ok(s) => prop_assert_eq!(s, original),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn quantized_truncation_point_is_rejected(point in 0usize..1_000_000) {
        let bytes = encode_snapshot(&quantized_fixture(7));
        let keep = point % bytes.len(); // every strict prefix, uniformly
        let err = decode_snapshot(&bytes[..keep])
            .expect_err("a strict prefix can never carry a valid file seal");
        prop_assert!(!err.to_string().is_empty());
    }

    #[test]
    fn quantized_clean_bytes_always_roundtrip(
        seed in 0u64..1_000,
        n_nodes in 1usize..10,
        k_steps in 1usize..4,
    ) {
        for p in [Precision::F32, Precision::I8] {
            let s = synthetic_snapshot(seed, n_nodes, 3, 2, k_steps, 4, 0)
                .requantized(QuantSpec::uniform(p));
            let decoded = decode_snapshot(&encode_snapshot(&s)).expect("clean bytes must decode");
            prop_assert_eq!(decoded, s);
        }
    }
    #[test]
    fn any_byte_mutation_roundtrips_or_is_rejected(
        seed in 0u64..10_000,
        n_mut in 1usize..8,
    ) {
        let original = synthetic_snapshot(7, 6, 3, 2, 2, 4, 0);
        let bytes = encode_snapshot(&original);
        let corrupt = amud_train::faults::corrupt_binary(&bytes, seed, n_mut);
        match decode_snapshot(&corrupt) {
            // Mutations can collide and cancel out (same byte, same bit,
            // twice) — then the decode must reproduce the original.
            Ok(s) => prop_assert_eq!(s, original),
            // Otherwise: a typed rejection, never a different model. The
            // error must render (Display is part of the typed contract).
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn any_truncation_point_is_rejected(point in 0usize..1_000_000) {
        let bytes = encode_snapshot(&synthetic_snapshot(7, 6, 3, 2, 2, 4, 0));
        let keep = point % bytes.len(); // every strict prefix, uniformly
        let err = decode_snapshot(&bytes[..keep])
            .expect_err("a strict prefix can never carry a valid file seal");
        prop_assert!(!err.to_string().is_empty());
    }

    #[test]
    fn arbitrary_garbage_never_panics(words in prop::collection::vec(0u64..256, 0..512)) {
        let garbage: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        // Typed error or (astronomically unlikely) a valid decode; the
        // point is that no input can panic the parser.
        let _ = decode_snapshot(&garbage);
    }

    #[test]
    fn clean_bytes_always_roundtrip(
        seed in 0u64..1_000,
        n_nodes in 1usize..10,
        k_steps in 1usize..4,
        variant in 0u64..5,
    ) {
        let s = synthetic_snapshot(seed, n_nodes, 3, 2, k_steps, 4, variant as u32);
        let decoded = decode_snapshot(&encode_snapshot(&s)).expect("clean bytes must decode");
        prop_assert_eq!(decoded, s);
    }
}
