//! Snapshot version compatibility, pinned with real bytes: a v2 file
//! written by the last v2 encoder still decodes to the same model, and a
//! file whose version word was rewritten to another version never
//! decodes (the version word picks the seal scheme, so the seals fail).

use amud_quant::{Precision, QuantSpec};
use amud_serve::snapshot::{decode_snapshot, encode_snapshot, Snapshot};
use amud_serve::synthetic::synthetic_snapshot;
use amud_serve::SnapshotError;

/// Written by the v2 `encode_snapshot` from [`v2_fixture_model`].
const V2_INT8: &[u8] = include_bytes!("fixtures/synthetic_v2_int8.snap");

/// The model in the v2 fixture: int8 features, f32 weights.
fn v2_fixture_model() -> Snapshot {
    synthetic_snapshot(41, 16, 8, 2, 2, 8, 0)
        .requantized(QuantSpec { features: Precision::I8, weights: Precision::F32 })
}

fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]])
}

fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out
}

#[test]
fn committed_v2_file_decodes_to_the_same_model() {
    assert_eq!(version_of(V2_INT8), 2);
    let decoded = decode_snapshot(V2_INT8).expect("v2 files must stay decodable");
    assert_eq!(decoded, v2_fixture_model());
}

#[test]
fn writer_emits_v3_of_the_same_length_as_v2() {
    let v3 = encode_snapshot(&v2_fixture_model());
    assert_eq!(version_of(&v3), 3);
    // Only the version word and the seals changed: the framing and the
    // byte count are v2's.
    assert_eq!(v3.len(), V2_INT8.len());
    let diff: Vec<usize> = (0..v3.len()).filter(|&i| v3[i] != V2_INT8[i]).collect();
    assert!(diff.iter().all(|&i| i == 8 || is_seal_byte(&v3, i)), "non-seal bytes differ");
    assert_eq!(decode_snapshot(&v3).expect("v3 decodes"), v2_fixture_model());
}

/// Whether byte `i` lies in a section seal or the file seal of `bytes`.
fn is_seal_byte(bytes: &[u8], i: usize) -> bool {
    let mut pos = 24;
    for _ in 0..3 {
        let mut len = [0u8; 8];
        len.copy_from_slice(&bytes[pos + 4..pos + 12]);
        let len = u64::from_le_bytes(len) as usize;
        let seal = pos + 12 + len;
        if (seal..seal + 8).contains(&i) {
            return true;
        }
        pos = seal + 8;
    }
    (pos..pos + 8).contains(&i)
}

#[test]
fn a_v3_file_relabelled_as_an_older_version_is_rejected() {
    let v3 = encode_snapshot(&v2_fixture_model());
    for old in [1u32, 2] {
        match decode_snapshot(&with_version(&v3, old)) {
            Err(SnapshotError::SealMismatch { section }) => assert_eq!(section, "META"),
            other => panic!("v3 bytes labelled v{old} must fail a seal, got {other:?}"),
        }
    }
}

#[test]
fn a_v2_file_relabelled_as_v3_is_rejected() {
    match decode_snapshot(&with_version(V2_INT8, 3)) {
        Err(SnapshotError::SealMismatch { section }) => assert_eq!(section, "META"),
        other => panic!("v2 bytes labelled v3 must fail a seal, got {other:?}"),
    }
}

#[test]
fn versions_past_v3_are_unsupported() {
    let v3 = encode_snapshot(&v2_fixture_model());
    for v in [0u32, 4, u32::MAX] {
        assert_eq!(
            decode_snapshot(&with_version(&v3, v)),
            Err(SnapshotError::UnsupportedVersion { found: v })
        );
    }
}
