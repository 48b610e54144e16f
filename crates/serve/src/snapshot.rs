//! Crash-safe snapshot artifacts (DESIGN.md §13.1).
//!
//! A snapshot bundles everything [`crate::engine::Engine`] needs —
//! a [`QuantizedExport`] plus a caller-chosen tag — into one versioned binary
//! file that is safe to read while writers crash around it:
//!
//! * **Atomic replacement.** [`write_snapshot`] writes to a temporary
//!   sibling, `sync_all`s it, and `rename`s it over the destination, so a
//!   reader never observes a half-written file at the published path.
//! * **Per-section integrity seals.** The three sections (META, WEIGHTS,
//!   FEATURES) each carry a word digest ([`amud_cache::word_digest`]) of
//!   their payload; a whole-file seal covers the framing, including those
//!   section seals. Any bit flip, truncation, or splice fails a seal
//!   before a single payload byte is trusted.
//! * **Typed rejection.** Every failure mode is a [`SnapshotError`]
//!   variant — never a panic, never a silently partial model. The
//!   property tests mutate and truncate snapshots byte-by-byte and assert
//!   exactly this.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic    8 B   "AMUDSNP\n"
//! version  u32   3 (v1 and v2 files are still decoded; see below)
//! tag      u64   caller-chosen (seed, build id, …)
//! n_sect   u32   3
//! 3 × section:   tag u32 · len u64 · payload · seal u64 = digest(payload)
//! file seal u64  digest(magic · version · tag · n_sect · 3 × (tag · len · seal))
//! ```
//!
//! **Seals (v3).** Each payload byte is hashed once on encode and once on
//! decode: the section seal is the word digest of the payload (its
//! length, then 8-byte words, then the zero-padded tail). The digest
//! steps are bijections on its state, so two equal-length payloads that
//! differ in one word always seal differently. The file seal hashes only
//! the framing; every payload byte reaches it through its section's seal.
//!
//! **Matrices** (v2 and v3): every weight/feature matrix is written as
//! `precision u32 · rows u32 · cols u32 · payload`, where the
//! payload is raw f32 little-endian words (precision 0) or one f32 scale
//! followed by raw int8 bytes (precision 2). Biases are always f32.
//! Precision code 1 is reserved: it was binary16, which is retired, and
//! is never reused. A matrix carrying it fails decode as
//! [`SnapshotError::Malformed`] with a message asking for an int8
//! re-export.
//!
//! **Older versions.** v2 has the v3 layout with byte-wise FNV-1a seals
//! ([`amud_cache::fingerprint_bytes`] per section, FNV-1a over every byte
//! before the trailer for the file seal). v1 has the v2 seals and no
//! precision prefix (all matrices f32); it decodes into the same
//! [`Snapshot`] with every matrix wrapped at f32, so pre-quantization
//! artifacts keep working. The version word picks the seal scheme, so a
//! file whose version word was rewritten fails its seals. Writers always
//! emit v3.

use crate::error::SnapshotError;
use amud_cache::{fingerprint_bytes, word_digest, Fnv1a};
use amud_core::{DpAttention, QLinear, QuantizedExport};
use amud_nn::DenseMatrix;
use amud_quant::{Precision, QMatrix, QuantSpec};
use std::path::Path;

const MAGIC: &[u8; 8] = b"AMUDSNP\n";
const VERSION: u32 = 3;
const SECTION_META: u32 = 1;
const SECTION_WEIGHTS: u32 = 2;
const SECTION_FEATURES: u32 = 3;
const SECTION_NAMES: [&str; 3] = ["META", "WEIGHTS", "FEATURES"];

/// A decoded snapshot: the model export plus the writer's tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Caller-chosen identifier recorded at write time (training seed,
    /// build number, …); surfaced by the server's stats endpoint so a
    /// hot swap is observable.
    pub tag: u64,
    /// The model state (weights + propagated features), each matrix at
    /// its stored precision. An f32 artifact is the identity wrap.
    pub export: QuantizedExport,
}

impl Snapshot {
    /// Wraps an exported model (as [`amud_core::Adpa::export`] returns it,
    /// at f32) with a tag.
    pub fn from_export(tag: u64, export: QuantizedExport) -> Self {
        Snapshot { tag, export }
    }

    /// Re-quantizes this snapshot under `spec` (decode to f32, then
    /// quantize each tensor class). Exact when the source is f32 — the
    /// post-training quantization entry point for artifacts.
    pub fn requantized(&self, spec: QuantSpec) -> Snapshot {
        Snapshot { tag: self.tag, export: self.export.quantize(spec) }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_matrix(out: &mut Vec<u8>, m: &DenseMatrix) {
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    for &v in m.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// v2 matrix layout: `precision u32 · rows u32 · cols u32 · payload`.
/// I8 payloads carry their f32 scale before the raw bytes.
fn put_qmatrix(out: &mut Vec<u8>, m: &QMatrix) {
    put_u32(out, m.precision().code());
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    match m {
        QMatrix::F32(d) => {
            for &v in d.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        QMatrix::I8 { scale, q, .. } => {
            out.extend_from_slice(&scale.to_le_bytes());
            for &v in q {
                out.push(v as u8);
            }
        }
    }
}

fn put_qlinear(out: &mut Vec<u8>, l: &QLinear) {
    put_qmatrix(out, &l.w);
    put_matrix(out, &l.b);
}

fn attention_code(a: DpAttention) -> u32 {
    match a {
        DpAttention::Original => 0,
        DpAttention::Gate => 1,
        DpAttention::Recursive => 2,
        DpAttention::Jk => 3,
        DpAttention::None => 4,
    }
}

fn encode_meta(s: &Snapshot) -> Vec<u8> {
    let e = &s.export;
    let mut out = Vec::new();
    put_u32(&mut out, attention_code(e.dp_attention));
    put_u32(&mut out, e.k_steps as u32);
    put_u32(&mut out, e.hidden as u32);
    put_u32(&mut out, e.n_classes as u32);
    put_u32(&mut out, e.pattern_names.len() as u32);
    for name in &e.pattern_names {
        put_str(&mut out, name);
    }
    out
}

fn put_weights(out: &mut Vec<u8>, s: &Snapshot) {
    let e = &s.export;
    put_u32(out, u32::from(e.w_dp.is_some()));
    if let Some(w) = &e.w_dp {
        put_qmatrix(out, w);
    }
    put_u32(out, e.op_scorers.len() as u32);
    for l in &e.op_scorers {
        put_qlinear(out, l);
    }
    put_qlinear(out, &e.fuse);
    put_u32(out, u32::from(e.hop_scorer.is_some()));
    if let Some(l) = &e.hop_scorer {
        put_qlinear(out, l);
    }
    put_u32(out, e.classifier.len() as u32);
    for l in &e.classifier {
        put_qlinear(out, l);
    }
}

fn put_features(out: &mut Vec<u8>, s: &Snapshot) {
    let e = &s.export;
    put_qmatrix(out, &e.x0);
    put_u32(out, e.steps.len() as u32);
    put_u32(out, e.steps.first().map_or(0, Vec::len) as u32);
    for per_step in &e.steps {
        for m in per_step {
            put_qmatrix(out, m);
        }
    }
}

/// Appends one section (`tag · len · payload · seal`) with the payload
/// written in place and sealed once, and its `tag · len · seal` to
/// `framing`, the file seal's input.
fn put_section(
    out: &mut Vec<u8>,
    framing: &mut Vec<u8>,
    tag: u32,
    put_payload: impl FnOnce(&mut Vec<u8>),
) {
    put_u32(out, tag);
    let len_at = out.len();
    put_u64(out, 0); // patched once the payload is written
    put_payload(out);
    let payload = &out[len_at + 8..];
    let (len, seal) = (payload.len() as u64, word_digest(payload));
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    put_u64(out, seal);
    put_u32(framing, tag);
    put_u64(framing, len);
    put_u64(framing, seal);
}

/// Serializes a snapshot to its on-disk byte layout (see module docs).
pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, s.tag);
    put_u32(&mut out, 3);
    let mut framing = out.clone();
    put_section(&mut out, &mut framing, SECTION_META, |o| o.extend_from_slice(&encode_meta(s)));
    put_section(&mut out, &mut framing, SECTION_WEIGHTS, |o| put_weights(o, s));
    put_section(&mut out, &mut framing, SECTION_FEATURES, |o| put_features(o, s));
    put_u64(&mut out, word_digest(&framing));
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked little-endian reader over one section payload. Every
/// read that would cross the end is a typed error naming the section.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self { buf, pos: 0, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated { section: self.section })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            what: format!("non-UTF-8 string in {}", self.section),
        })
    }

    fn f32(&mut self) -> Result<f32, SnapshotError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Validated `rows × cols` shape with an overflow- and
    /// payload-bounded element count. Zero dimensions are rejected up
    /// front so no variant can smuggle in an empty tensor.
    fn shape(&mut self, elem_bytes: usize) -> Result<(usize, usize, usize, usize), SnapshotError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        if rows == 0 || cols == 0 {
            return Err(SnapshotError::Malformed {
                what: format!("zero-dimension matrix in {}", self.section),
            });
        }
        let n = rows.checked_mul(cols).ok_or_else(|| SnapshotError::Malformed {
            what: format!("matrix dimension overflow in {}", self.section),
        })?;
        // Bound the allocation by what the payload can actually hold.
        let bytes = n.checked_mul(elem_bytes).ok_or_else(|| SnapshotError::Malformed {
            what: format!("matrix byte-size overflow in {}", self.section),
        })?;
        Ok((rows, cols, n, bytes))
    }

    fn matrix(&mut self) -> Result<DenseMatrix, SnapshotError> {
        let (rows, cols, n, bytes) = self.shape(4)?;
        let raw = self.take(bytes)?;
        let mut data = Vec::with_capacity(n);
        for chunk in raw.chunks_exact(4) {
            data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        Ok(DenseMatrix::from_vec(rows, cols, data))
    }

    /// A v2 precision-prefixed matrix; with `legacy` set, parses the v1
    /// f32 layout instead and wraps it at f32.
    fn qmatrix(&mut self, legacy: bool) -> Result<QMatrix, SnapshotError> {
        if legacy {
            return self.matrix().map(QMatrix::F32);
        }
        let code = self.u32()?;
        let precision = Precision::from_code(code).ok_or_else(|| SnapshotError::Malformed {
            what: if code == 1 {
                format!(
                    "precision code 1 (f16) in {} is retired; re-export with --quantize int8",
                    self.section
                )
            } else {
                format!("unknown precision code {code} in {}", self.section)
            },
        })?;
        match precision {
            Precision::F32 => self.matrix().map(QMatrix::F32),
            Precision::I8 => {
                let (rows, cols, n, bytes) = self.shape(1)?;
                let scale = self.f32()?;
                if !scale.is_finite() || scale <= 0.0 {
                    return Err(SnapshotError::Malformed {
                        what: format!("non-positive int8 scale in {}", self.section),
                    });
                }
                let raw = self.take(bytes)?;
                let mut q = Vec::with_capacity(n);
                for &b in raw {
                    q.push(b as i8);
                }
                QMatrix::try_i8(rows, cols, scale, q).ok_or_else(|| SnapshotError::Malformed {
                    what: format!("invalid int8 matrix shape in {}", self.section),
                })
            }
        }
    }

    fn qlinear(&mut self, legacy: bool) -> Result<QLinear, SnapshotError> {
        Ok(QLinear { w: self.qmatrix(legacy)?, b: self.matrix()? })
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed {
                what: format!(
                    "{} bytes of trailing garbage in {}",
                    self.buf.len() - self.pos,
                    self.section
                ),
            });
        }
        Ok(())
    }
}

fn decode_attention(code: u32) -> Result<DpAttention, SnapshotError> {
    Ok(match code {
        0 => DpAttention::Original,
        1 => DpAttention::Gate,
        2 => DpAttention::Recursive,
        3 => DpAttention::Jk,
        4 => DpAttention::None,
        other => {
            return Err(SnapshotError::Malformed {
                what: format!("unknown DP attention variant {other}"),
            })
        }
    })
}

/// Hard ceilings on collection counts, so a sealed-but-absurd header
/// cannot drive a pathological allocation before shape validation.
const MAX_ITEMS: usize = 1 << 16;

fn checked_count(n: u32, what: &str, section: &'static str) -> Result<usize, SnapshotError> {
    let n = n as usize;
    if n > MAX_ITEMS {
        return Err(SnapshotError::Malformed {
            what: format!("{what} count {n} in {section} exceeds {MAX_ITEMS}"),
        });
    }
    Ok(n)
}

/// Parses and validates snapshot bytes. Every malformation — bad magic,
/// version skew, truncation, a failed integrity seal, impossible shapes —
/// is a typed [`SnapshotError`]; this function never panics on arbitrary
/// input (property-tested in `tests/snapshot_props.rs`).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    // --- framing ------------------------------------------------------
    let mut hdr = Reader::new(bytes, "header");
    let magic = hdr.take(8)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = hdr.u32()?;
    if !(1..=VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    // v1 predates quantized sections: plain f32 matrices, no precision
    // prefix. Decoded as the f32 wrap of the same model.
    let legacy = version == 1;
    // v1 and v2 seal with byte-wise FNV-1a, v3 with the word digest.
    let seal_of: fn(&[u8]) -> u64 =
        if version == VERSION { word_digest } else { fingerprint_bytes };
    let tag = hdr.u64()?;
    let n_sections = hdr.u32()?;
    if n_sections != 3 {
        return Err(SnapshotError::Malformed {
            what: format!("expected 3 sections, found {n_sections}"),
        });
    }
    let mut pos = hdr.pos;
    // v3's file seal input: the header, then each section's tag · len · seal.
    let mut framing = bytes[..pos].to_vec();

    let mut payloads: [&[u8]; 3] = [&[], &[], &[]];
    for (i, expect_tag) in [SECTION_META, SECTION_WEIGHTS, SECTION_FEATURES].iter().enumerate() {
        let section = SECTION_NAMES[i];
        let mut r = Reader { buf: bytes, pos, section };
        let tag = r.u32()?;
        if tag != *expect_tag {
            return Err(SnapshotError::Malformed {
                what: format!("section {i} has tag {tag}, expected {expect_tag}"),
            });
        }
        let len = r.u64()?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= bytes.len())
            .ok_or(SnapshotError::Truncated { section })?;
        let payload = r.take(len)?;
        let seal = r.u64()?;
        if seal != seal_of(payload) {
            return Err(SnapshotError::SealMismatch { section });
        }
        put_u32(&mut framing, tag);
        put_u64(&mut framing, len as u64);
        put_u64(&mut framing, seal);
        payloads[i] = payload;
        pos = r.pos;
    }

    // The file seal, then nothing after. v3 seals the framing (the
    // payloads are already sealed); v1 and v2 seal every byte before it.
    let mut tr = Reader { buf: bytes, pos, section: "trailer" };
    let file_seal = tr.u64()?;
    let expected = if version == VERSION {
        word_digest(&framing)
    } else {
        let mut fnv = Fnv1a::new();
        fnv.write_bytes(&bytes[..pos]);
        fnv.finish()
    };
    if file_seal != expected {
        return Err(SnapshotError::SealMismatch { section: "trailer" });
    }
    if tr.pos != bytes.len() {
        return Err(SnapshotError::Malformed {
            what: format!("{} bytes of trailing garbage after trailer", bytes.len() - tr.pos),
        });
    }

    // --- META ---------------------------------------------------------
    let mut r = Reader::new(payloads[0], "META");
    let dp_attention = decode_attention(r.u32()?)?;
    let k_steps = r.u32()? as usize;
    let hidden = r.u32()? as usize;
    let n_classes = r.u32()? as usize;
    let n_names = checked_count(r.u32()?, "pattern-name", "META")?;
    let mut pattern_names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        pattern_names.push(r.string()?);
    }
    r.finish()?;

    // --- WEIGHTS ------------------------------------------------------
    let mut r = Reader::new(payloads[1], "WEIGHTS");
    let w_dp = if r.u32()? != 0 { Some(r.qmatrix(legacy)?) } else { None };
    let n_scorers = checked_count(r.u32()?, "op-scorer", "WEIGHTS")?;
    let mut op_scorers = Vec::with_capacity(n_scorers);
    for _ in 0..n_scorers {
        op_scorers.push(r.qlinear(legacy)?);
    }
    let fuse = r.qlinear(legacy)?;
    let hop_scorer = if r.u32()? != 0 { Some(r.qlinear(legacy)?) } else { None };
    let n_classifier = checked_count(r.u32()?, "classifier-layer", "WEIGHTS")?;
    let mut classifier = Vec::with_capacity(n_classifier);
    for _ in 0..n_classifier {
        classifier.push(r.qlinear(legacy)?);
    }
    r.finish()?;

    // --- FEATURES -----------------------------------------------------
    let mut r = Reader::new(payloads[2], "FEATURES");
    let x0 = r.qmatrix(legacy)?;
    let got_steps = checked_count(r.u32()?, "step", "FEATURES")?;
    let got_patterns = checked_count(r.u32()?, "operator", "FEATURES")?;
    let mut steps = Vec::with_capacity(got_steps);
    for _ in 0..got_steps {
        let mut per_step = Vec::with_capacity(got_patterns);
        for _ in 0..got_patterns {
            per_step.push(r.qmatrix(legacy)?);
        }
        steps.push(per_step);
    }
    r.finish()?;

    let export = QuantizedExport {
        dp_attention,
        k_steps,
        hidden,
        n_classes,
        pattern_names,
        w_dp,
        op_scorers,
        fuse,
        hop_scorer,
        classifier,
        x0,
        steps,
    };
    Ok(Snapshot { tag, export })
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

fn io_err(op: &'static str, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io { op, message: e.to_string() }
}

/// Writes a snapshot crash-safely: encode → temp sibling → `sync_all` →
/// atomic `rename`. Readers of `path` either see the previous complete
/// snapshot or the new complete snapshot, never a torn file. Returns the
/// number of bytes written.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> Result<usize, SnapshotError> {
    let bytes = encode_snapshot(snapshot);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        f.write_all(&bytes).map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("sync", e))?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        // Best effort: do not leave the temp file behind on failure.
        let _ = std::fs::remove_file(&tmp);
        return Err(io_err("rename", e));
    }
    Ok(bytes.len())
}

/// Reads and validates a snapshot from disk.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read", e))?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_snapshot;
    use amud_train::faults::{corrupt_binary, truncate_binary};

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("amud-serve-test-{}-{name}", std::process::id()));
        p
    }

    // --- test-only v1 encoder (the pre-quantization f32 layout) -------

    fn put_linear_v1(out: &mut Vec<u8>, l: &QLinear) {
        put_matrix(out, &l.w.dequantize());
        put_matrix(out, &l.b);
    }

    fn encode_snapshot_v1(s: &Snapshot) -> Vec<u8> {
        assert_eq!(s.export.spec(), QuantSpec::F32, "v1 files can only hold f32 models");
        let e = &s.export;
        let mut weights = Vec::new();
        put_u32(&mut weights, u32::from(e.w_dp.is_some()));
        if let Some(w) = &e.w_dp {
            put_matrix(&mut weights, &w.dequantize());
        }
        put_u32(&mut weights, e.op_scorers.len() as u32);
        for l in &e.op_scorers {
            put_linear_v1(&mut weights, l);
        }
        put_linear_v1(&mut weights, &e.fuse);
        put_u32(&mut weights, u32::from(e.hop_scorer.is_some()));
        if let Some(l) = &e.hop_scorer {
            put_linear_v1(&mut weights, l);
        }
        put_u32(&mut weights, e.classifier.len() as u32);
        for l in &e.classifier {
            put_linear_v1(&mut weights, l);
        }
        let mut features = Vec::new();
        put_matrix(&mut features, &e.x0.dequantize());
        put_u32(&mut features, e.steps.len() as u32);
        put_u32(&mut features, e.steps.first().map_or(0, Vec::len) as u32);
        for per_step in &e.steps {
            for m in per_step {
                put_matrix(&mut features, &m.dequantize());
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, 1);
        put_u64(&mut out, s.tag);
        put_u32(&mut out, 3);
        for (tag, payload) in [
            (SECTION_META, encode_meta(s)),
            (SECTION_WEIGHTS, weights),
            (SECTION_FEATURES, features),
        ] {
            put_u32(&mut out, tag);
            put_u64(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
            put_u64(&mut out, fingerprint_bytes(&payload));
        }
        let mut fnv = Fnv1a::new();
        fnv.write_bytes(&out);
        let file_seal = fnv.finish();
        put_u64(&mut out, file_seal);
        out
    }

    #[test]
    fn v1_files_still_decode_to_the_same_model() {
        for variant in 0..5u64 {
            let snap = synthetic_snapshot(11 + variant, 10, 4, 3, 2, 8, variant as u32);
            let v1_bytes = encode_snapshot_v1(&snap);
            let v2_bytes = encode_snapshot(&snap);
            assert_ne!(v1_bytes, v2_bytes, "v2 adds precision prefixes");
            let back = decode_snapshot(&v1_bytes).expect("v1 layout must stay decodable");
            assert_eq!(back, snap, "variant {variant}");
        }
    }

    #[test]
    fn quantized_snapshots_round_trip_by_precision() {
        let base = synthetic_snapshot(21, 10, 4, 3, 2, 8, 0);
        for spec in [
            QuantSpec::uniform(Precision::I8),
            QuantSpec { features: Precision::I8, weights: Precision::F32 },
            QuantSpec { features: Precision::F32, weights: Precision::I8 },
        ] {
            let q = base.requantized(spec);
            assert_eq!(q.export.spec(), spec);
            let bytes = encode_snapshot(&q);
            let back = decode_snapshot(&bytes).expect("quantized encoding must decode");
            assert_eq!(back, q, "spec {:?}", spec);
        }
    }

    #[test]
    fn quantized_snapshots_shrink_on_the_wire() {
        let base = synthetic_snapshot(22, 32, 16, 3, 3, 8, 0);
        let f32_len = encode_snapshot(&base).len();
        let i8_len = encode_snapshot(&base.requantized(QuantSpec::uniform(Precision::I8))).len();
        let i8_ratio = f32_len as f64 / i8_len as f64;
        assert!(i8_ratio >= 3.0, "int8 file ratio {i8_ratio:.2} < 3.0");
    }

    #[test]
    fn non_positive_int8_scale_is_rejected() {
        let q =
            synthetic_snapshot(23, 8, 4, 2, 1, 4, 0).requantized(QuantSpec::uniform(Precision::I8));
        let bytes = encode_snapshot(&q);
        // The FEATURES payload opens with x0: precision code u32 (=2),
        // rows u32, cols u32, then the f32 scale. Find the section start
        // from the framing rather than hardcoding weight sizes.
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap, q);
        // Direct reader-level check: a zero scale must be malformed.
        let mut payload = Vec::new();
        put_u32(&mut payload, Precision::I8.code());
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 1);
        payload.extend_from_slice(&0.0f32.to_le_bytes());
        payload.push(0);
        let mut r = Reader::new(&payload, "FEATURES");
        match r.qmatrix(false) {
            Err(SnapshotError::Malformed { what }) => {
                assert!(what.contains("scale"), "{what}");
            }
            other => panic!("expected malformed scale, got {other:?}"),
        }
    }

    #[test]
    fn retired_f16_precision_code_is_rejected() {
        // Code 1 was binary16: a 1×1 matrix with one 2-byte payload.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 1);
        payload.extend_from_slice(&0x3c00u16.to_le_bytes());
        let mut r = Reader::new(&payload, "WEIGHTS");
        match r.qmatrix(false) {
            Err(SnapshotError::Malformed { what }) => {
                assert!(what.contains("f16") && what.contains("int8"), "{what}");
            }
            other => panic!("expected malformed retired precision, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for variant in 0..5u64 {
            let snap = synthetic_snapshot(7 + variant, 12, 4, 3, 2, 8, variant as u32);
            let bytes = encode_snapshot(&snap);
            let back = decode_snapshot(&bytes).expect("own encoding must decode");
            assert_eq!(back, snap, "variant {variant}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_snapshot(&synthetic_snapshot(1, 6, 3, 2, 1, 4, 0));
        bytes[0] ^= 0xFF;
        assert_eq!(decode_snapshot(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn version_skew_is_rejected() {
        let snap = synthetic_snapshot(1, 6, 3, 2, 1, 4, 0);
        let mut bytes = encode_snapshot(&snap);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(decode_snapshot(&bytes), Err(SnapshotError::UnsupportedVersion { found: 99 }));
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = encode_snapshot(&synthetic_snapshot(2, 6, 3, 2, 1, 4, 1));
        for keep in 0..bytes.len() {
            let r = decode_snapshot(&bytes[..keep]);
            assert!(r.is_err(), "prefix of {keep}/{} bytes must not decode", bytes.len());
        }
        // The fraction-based harness helper produces the same class of input.
        let half = truncate_binary(&bytes, 0.5);
        assert!(decode_snapshot(&half).is_err(), "half-written snapshot must be rejected");
    }

    #[test]
    fn bit_flips_never_decode_to_a_different_model() {
        let snap = synthetic_snapshot(3, 6, 3, 2, 1, 4, 2);
        let bytes = encode_snapshot(&snap);
        for seed in 0..200u64 {
            let bad = corrupt_binary(&bytes, seed, 3);
            if bad == bytes {
                continue; // the mutator may hit the same byte twice
            }
            match decode_snapshot(&bad) {
                Err(_) => {}
                Ok(decoded) => panic!(
                    "seed {seed}: corrupted snapshot decoded (as {} model)",
                    if decoded == snap { "the same" } else { "a DIFFERENT" }
                ),
            }
        }
    }

    #[test]
    fn seal_mismatch_names_the_section() {
        let snap = synthetic_snapshot(4, 6, 3, 2, 1, 4, 0);
        let bytes = encode_snapshot(&snap);
        // Flip one byte inside the first section's payload: the META seal
        // must catch it before any parsing happens.
        let mut bad = bytes.clone();
        let meta_payload_start = 8 + 4 + 8 + 4 + 4 + 8;
        bad[meta_payload_start] ^= 0x01;
        match decode_snapshot(&bad) {
            Err(SnapshotError::SealMismatch { section: "META" }) => {}
            other => panic!("expected META seal mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_snapshot(&synthetic_snapshot(5, 6, 3, 2, 1, 4, 0));
        bytes.extend_from_slice(b"EXTRA");
        assert!(matches!(decode_snapshot(&bytes), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn write_is_atomic_and_read_round_trips() {
        let path = tmp_path("roundtrip.snap");
        let snap = synthetic_snapshot(6, 6, 3, 2, 1, 4, 3);
        let n = write_snapshot(&path, &snap).expect("write");
        assert_eq!(n, encode_snapshot(&snap).len());
        // No temp residue next to the published file.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "temp sibling must be renamed away");
        let back = read_snapshot(&path).expect("read");
        assert_eq!(back, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_transient_io() {
        let e = read_snapshot(Path::new("/nonexistent/amud.snap")).unwrap_err();
        assert!(e.is_transient(), "{e:?}");
        assert_eq!(e.kind(), "io");
    }
}
