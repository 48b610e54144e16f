//! Row-gather inference engine (DESIGN.md §13.2).
//!
//! ADPA's eval-mode forward pass is *row-local*: every op it uses —
//! `col_scale`, `add_bias`, `relu`, `leaky_relu`, `sigmoid`,
//! `row_softmax`, row-blocked `matmul`, `concat_cols`, `scale`, `add` —
//! computes output row `v` from input rows `v` only (the sparse topology
//! was consumed by the one-time Eq. 9 precompute). The engine exploits
//! this: to answer a request for nodes `{v₁…v_b}` it gathers those rows
//! from the propagated tensors (and `W_DP`), then replays the exact
//! scalar arithmetic of the tape's forward pass on the `b`-row slices.
//! The result is **bit-identical** to running the full-graph tape forward
//! and reading out the same rows — pinned by the `matches_tape_forward`
//! tests below across every attention variant.
//!
//! Dense kernels (`matmul`) ride `amud-par`'s worker pool and inherit its
//! bit-identity-at-any-thread-count contract; the elementwise glue here
//! runs serially (request batches are small next to training workloads).
//!
//! **Quantized snapshots** stay stored quantized: row gathers decode only
//! the requested int8 feature rows ([`QMatrix::decode_row_into`]),
//! and each dense layer goes through [`amud_quant::matmul_deq`], which
//! decodes a quantized weight once per `linear` call into a temporary
//! f32 matrix and runs the f32 `matmul` on it. Because the decode is a
//! single rounding shared by both paths, a quantized engine is
//! bit-identical to an f32 engine built from the dequantized export —
//! pinned by `quantized_engine_matches_dequantized`.

use crate::error::{ServeError, SnapshotError};
use crate::snapshot::Snapshot;
use amud_core::{DpAttention, QLinear, QuantizedExport};
use amud_nn::DenseMatrix;
use amud_quant::{matmul_deq, QMatrix};

/// One prediction in a reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The queried node id.
    pub node: usize,
    /// Argmax class.
    pub class: usize,
    /// Softmax probability of the argmax class.
    pub confidence: f32,
}

/// A validated, immutable model the server answers queries from. Built
/// once per snapshot (swap = build a new engine, then switch an `Arc`).
#[derive(Debug)]
pub struct Engine {
    tag: u64,
    export: QuantizedExport,
}

impl Engine {
    /// Validates the snapshot's cross-matrix shape invariants and wraps
    /// it. A snapshot that parsed but describes an inconsistent model —
    /// a fuse layer that does not match the operator family, propagated
    /// tensors of uneven shape — is rejected here with
    /// [`SnapshotError::Malformed`], which is what lets the hot-swap
    /// watcher keep serving last-good on a bad candidate.
    pub fn new(snapshot: Snapshot) -> Result<Self, ServeError> {
        let e = &snapshot.export;
        let malformed = |what: String| ServeError::Snapshot(SnapshotError::Malformed { what });
        let (n, f) = e.x0.shape();
        let k = e.pattern_names.len();
        if e.k_steps == 0 {
            return Err(malformed("k_steps must be ≥ 1".into()));
        }
        if e.steps.len() != e.k_steps {
            return Err(malformed(format!(
                "{} step tensors for k_steps={}",
                e.steps.len(),
                e.k_steps
            )));
        }
        for (l, per_step) in e.steps.iter().enumerate() {
            if per_step.len() != k {
                return Err(malformed(format!(
                    "step {} has {} operator tensors, expected {k}",
                    l + 1,
                    per_step.len()
                )));
            }
            for (g, m) in per_step.iter().enumerate() {
                if m.shape() != (n, f) {
                    return Err(malformed(format!(
                        "operator {g} step {} tensor is {:?}, expected ({n}, {f})",
                        l + 1,
                        m.shape()
                    )));
                }
            }
        }
        let fuse_in = match e.dp_attention {
            DpAttention::None => f,
            _ => (k + 1) * f,
        };
        if e.fuse.w.shape() != (fuse_in, e.hidden) || e.fuse.b.shape() != (1, e.hidden) {
            return Err(malformed(format!(
                "fuse layer is {:?}/{:?}, expected ({fuse_in}, {})",
                e.fuse.w.shape(),
                e.fuse.b.shape(),
                e.hidden
            )));
        }
        match e.dp_attention {
            DpAttention::Original => {
                let w = e
                    .w_dp
                    .as_ref()
                    .ok_or_else(|| malformed("Original attention needs W_DP".into()))?;
                if w.shape() != (n, k + 1) {
                    return Err(malformed(format!(
                        "W_DP is {:?}, expected ({n}, {})",
                        w.shape(),
                        k + 1
                    )));
                }
            }
            DpAttention::Gate | DpAttention::Recursive => {
                if e.op_scorers.len() != k + 1 {
                    return Err(malformed(format!(
                        "{} operator scorers, expected {}",
                        e.op_scorers.len(),
                        k + 1
                    )));
                }
                for s in &e.op_scorers {
                    if s.w.shape() != (f, 1) || s.b.shape() != (1, 1) {
                        return Err(malformed(format!(
                            "operator scorer is {:?}, expected ({f}, 1)",
                            s.w.shape()
                        )));
                    }
                }
            }
            DpAttention::Jk | DpAttention::None => {}
        }
        if let Some(hop) = &e.hop_scorer {
            let want = (e.k_steps * e.hidden, e.k_steps);
            if hop.w.shape() != want || hop.b.shape() != (1, e.k_steps) {
                return Err(malformed(format!(
                    "hop scorer is {:?}, expected {want:?}",
                    hop.w.shape()
                )));
            }
        }
        if e.classifier.is_empty() {
            return Err(malformed("classifier has no layers".into()));
        }
        let mut prev = e.hidden;
        for (i, l) in e.classifier.iter().enumerate() {
            if l.w.rows() != prev || l.b.shape() != (1, l.w.cols()) {
                return Err(malformed(format!(
                    "classifier layer {i} is {:?}, expected ({prev}, _)",
                    l.w.shape()
                )));
            }
            prev = l.w.cols();
        }
        if prev != e.n_classes {
            return Err(malformed(format!(
                "classifier ends at width {prev}, expected {} classes",
                e.n_classes
            )));
        }
        Ok(Self { tag: snapshot.tag, export: snapshot.export })
    }

    /// The writer-chosen tag of the snapshot this engine was built from.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Number of nodes the engine can answer for.
    pub fn n_nodes(&self) -> usize {
        self.export.x0.rows()
    }

    /// Number of classes in the classifier head.
    pub fn n_classes(&self) -> usize {
        self.export.n_classes
    }

    /// The `(features, weights)` storage precisions of the loaded model.
    pub fn spec(&self) -> amud_quant::QuantSpec {
        self.export.spec()
    }

    /// Resident bytes across every stored tensor of the loaded model.
    pub fn n_bytes(&self) -> usize {
        self.export.n_bytes()
    }

    /// Resident bytes of the per-node feature tensors — what a row-gather
    /// walks, and the numerator of `bench-serve`'s bytes-per-query.
    pub fn feature_bytes(&self) -> usize {
        self.export.feature_bytes()
    }

    /// Raw logits for the requested nodes (one row per node, in request
    /// order). Out-of-range ids are a typed [`ServeError::BadRequest`].
    pub fn logits(&self, nodes: &[usize]) -> Result<DenseMatrix, ServeError> {
        let n = self.n_nodes();
        if nodes.is_empty() {
            return Err(ServeError::bad_request("empty node list"));
        }
        if let Some(&bad) = nodes.iter().find(|&&v| v >= n) {
            return Err(ServeError::bad_request(format!(
                "node {bad} out of range (graph has {n} nodes)"
            )));
        }
        let e = &self.export;

        // Level 1: DP attention per step (Eq. 10), on gathered rows.
        let x0 = gather(&e.x0, nodes);
        let w_dp = e.w_dp.as_ref().map(|w| gather(w, nodes));
        let step_reprs: Vec<DenseMatrix> = (1..=e.k_steps)
            .map(|l| {
                let mut ops: Vec<DenseMatrix> = Vec::with_capacity(e.steps[l - 1].len() + 1);
                ops.push(x0.clone());
                for m in &e.steps[l - 1] {
                    ops.push(gather(m, nodes));
                }
                let fused_input = match e.dp_attention {
                    DpAttention::Original => {
                        let Some(w) = &w_dp else {
                            unreachable!("validated: Original attention has W_DP")
                        };
                        let weighted: Vec<DenseMatrix> =
                            ops.iter().enumerate().map(|(j, x)| col_scale(w, j, x)).collect();
                        concat(&weighted)
                    }
                    DpAttention::Gate => {
                        let weighted: Vec<DenseMatrix> = ops
                            .iter()
                            .zip(&e.op_scorers)
                            .map(|(x, scorer)| {
                                let mut logit = linear(x, scorer);
                                sigmoid(&mut logit);
                                col_scale(&logit, 0, x)
                            })
                            .collect();
                        concat(&weighted)
                    }
                    DpAttention::Recursive => {
                        let logits: Vec<DenseMatrix> = ops
                            .iter()
                            .zip(&e.op_scorers)
                            .map(|(x, scorer)| {
                                let mut v = linear(x, scorer);
                                leaky_relu(&mut v, 0.2);
                                v
                            })
                            .collect();
                        let mut w = concat(&logits);
                        row_softmax(&mut w);
                        let weighted: Vec<DenseMatrix> =
                            ops.iter().enumerate().map(|(j, x)| col_scale(&w, j, x)).collect();
                        concat(&weighted)
                    }
                    DpAttention::Jk => concat(&ops),
                    DpAttention::None => {
                        let mut acc = ops[0].clone();
                        for x in &ops[1..] {
                            add_assign(&mut acc, x);
                        }
                        scale(&mut acc, 1.0 / ops.len() as f32);
                        acc
                    }
                };
                let mut h = linear(&fused_input, &e.fuse);
                relu(&mut h);
                h
            })
            .collect();

        // Level 2: hop attention across steps (Eq. 11).
        let fused = if let Some(hop) = &e.hop_scorer {
            let refs: Vec<&DenseMatrix> = step_reprs.iter().collect();
            let stacked = DenseMatrix::concat_cols(&refs);
            let mut w = linear(&stacked, hop);
            leaky_relu(&mut w, 0.2);
            row_softmax(&mut w);
            let mut acc = col_scale(&w, 0, &step_reprs[0]);
            for (l, h) in step_reprs.iter().enumerate().skip(1) {
                let scaled = col_scale(&w, l, h);
                add_assign(&mut acc, &scaled);
            }
            acc
        } else {
            let mut acc = step_reprs[0].clone();
            for h in &step_reprs[1..] {
                add_assign(&mut acc, h);
            }
            scale(&mut acc, 1.0 / step_reprs.len() as f32);
            acc
        };

        // Classifier head: ReLU between layers, none after the last.
        let mut h = fused;
        let last = e.classifier.len() - 1;
        for (i, layer) in e.classifier.iter().enumerate() {
            h = linear(&h, layer);
            if i != last {
                relu(&mut h);
            }
        }
        Ok(h)
    }

    /// Predictions (argmax class + softmax confidence) for the requested
    /// nodes, in request order.
    pub fn predict(&self, nodes: &[usize]) -> Result<Vec<Prediction>, ServeError> {
        let mut logits = self.logits(nodes)?;
        let classes = logits.argmax_rows();
        row_softmax(&mut logits);
        Ok(nodes
            .iter()
            .zip(classes)
            .enumerate()
            .map(|(i, (&node, class))| Prediction { node, class, confidence: logits.get(i, class) })
            .collect())
    }
}

/// Gathers the requested rows of `m` into a `b × cols` f32 matrix,
/// decoding quantized rows on the fly (one rounding per element — the
/// same decode `dequantize` uses, so gathers are precision-agnostic).
fn gather(m: &QMatrix, nodes: &[usize]) -> DenseMatrix {
    let cols = m.cols();
    let mut out = DenseMatrix::zeros(nodes.len(), cols);
    for (i, &v) in nodes.iter().enumerate() {
        m.decode_row_into(v, out.row_mut(i));
    }
    out
}

/// `x · W + b` — the tape's `matmul` + `add_bias` pair. An f32 weight
/// runs the shared row-blocked kernel directly; a quantized one is
/// decoded once per call into a temporary f32 matrix first
/// ([`matmul_deq`]). The bias add replays `add_bias`'s per-row `+=` in
/// the same element order.
fn linear(x: &DenseMatrix, l: &QLinear) -> DenseMatrix {
    let mut y = matmul_deq(x, &l.w);
    let bias = l.b.row(0);
    for r in 0..y.rows() {
        for (v, &b) in y.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
    y
}

/// The tape's `col_scale`: row `r` of `x` times `w[r, col]`.
fn col_scale(w: &DenseMatrix, col: usize, x: &DenseMatrix) -> DenseMatrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let factor = w.get(r, col);
        for v in out.row_mut(r) {
            *v *= factor;
        }
    }
    out
}

fn concat(parts: &[DenseMatrix]) -> DenseMatrix {
    let refs: Vec<&DenseMatrix> = parts.iter().collect();
    DenseMatrix::concat_cols(&refs)
}

fn relu(m: &mut DenseMatrix) {
    for v in m.as_mut_slice() {
        *v = v.max(0.0);
    }
}

fn leaky_relu(m: &mut DenseMatrix, alpha: f32) {
    for v in m.as_mut_slice() {
        *v = if *v > 0.0 { *v } else { alpha * *v };
    }
}

fn sigmoid(m: &mut DenseMatrix) {
    for v in m.as_mut_slice() {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

fn add_assign(a: &mut DenseMatrix, b: &DenseMatrix) {
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

fn scale(m: &mut DenseMatrix, s: f32) {
    for v in m.as_mut_slice() {
        *v *= s;
    }
}

/// The tape's `row_softmax` / `softmax_in_place`, replayed exactly:
/// max-shift, exp with the sum accumulated in element order, then a
/// guarded divide.
fn row_softmax(m: &mut DenseMatrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_snapshot;
    use amud_core::{Adpa, AdpaConfig};
    use amud_train::{GraphData, Model};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data(name: &str, seed: u64) -> GraphData {
        let d = amud_datasets::replica(name, amud_datasets::ReplicaScale::tiny(), seed);
        GraphData::new(
            &d.graph,
            d.features.clone(),
            d.split.train.clone(),
            d.split.val.clone(),
            d.split.test.clone(),
        )
        .unwrap()
    }

    fn tape_logits(model: &Adpa, d: &GraphData) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = amud_nn::Tape::new();
        let out = model.forward(&mut tape, d, false, &mut rng);
        tape.value(out).clone()
    }

    #[test]
    fn matches_tape_forward_bit_for_bit_across_variants() {
        let d = data("texas", 11);
        for (variant, hop) in [
            (DpAttention::Original, true),
            (DpAttention::Original, false),
            (DpAttention::Gate, true),
            (DpAttention::Recursive, true),
            (DpAttention::Jk, true),
            (DpAttention::None, true),
        ] {
            let cfg =
                AdpaConfig { dp_attention: variant, hop_attention: hop, ..Default::default() };
            let model = Adpa::new(&d, cfg, 11).unwrap();
            let full = tape_logits(&model, &d);
            let engine =
                Engine::new(Snapshot::from_export(1, model.export())).expect("valid export");
            // Whole-graph query in one batch…
            let all: Vec<usize> = (0..d.n_nodes()).collect();
            let got = engine.logits(&all).unwrap();
            assert_eq!(got, full, "{variant:?} hop={hop}: engine must be bit-identical");
            // …and a scattered small batch must reproduce exactly those rows.
            let batch = [3usize, 0, 17 % d.n_nodes(), 5];
            let got = engine.logits(&batch).unwrap();
            for (i, &v) in batch.iter().enumerate() {
                assert_eq!(got.row(i), full.row(v), "{variant:?} row {v}");
            }
        }
    }

    #[test]
    fn quantized_engine_matches_dequantized_f32_engine_bit_for_bit() {
        use amud_quant::{Precision, QuantSpec};
        // The decode-then-matmul inference path must equal serving the
        // decoded export exactly: build one engine on the quantized snapshot and one on
        // its f32 expansion, and compare logits bitwise — per variant and
        // per precision, across batch shapes.
        for variant in 0..5u32 {
            let base = synthetic_snapshot(31 + u64::from(variant), 14, 6, 3, 2, 8, variant);
            for spec in [
                QuantSpec::uniform(Precision::I8),
                QuantSpec { features: Precision::I8, weights: Precision::F32 },
                QuantSpec { features: Precision::F32, weights: Precision::I8 },
            ] {
                let q = base.requantized(spec);
                let f32_twin = Snapshot {
                    tag: q.tag,
                    export: amud_core::QuantizedExport::from_export(q.export.dequantize()),
                };
                let qe = Engine::new(q).expect("quantized snapshot must validate");
                assert_eq!(qe.spec(), spec);
                assert!(qe.n_bytes() < Engine::new(f32_twin.clone()).unwrap().n_bytes());
                let fe = Engine::new(f32_twin).unwrap();
                let all: Vec<usize> = (0..14).collect();
                for batch in [&all[..], &[0usize, 13, 7][..], &[5usize][..]] {
                    let got = qe.logits(batch).unwrap();
                    let want = fe.logits(batch).unwrap();
                    assert_eq!(got, want, "variant {variant} spec {spec:?} batch {batch:?}");
                }
            }
        }
    }

    #[test]
    fn predict_reports_argmax_and_confidence() {
        let snap = synthetic_snapshot(9, 10, 4, 2, 2, 8, 0);
        let engine = Engine::new(snap).unwrap();
        let preds = engine.predict(&[0, 5, 9]).unwrap();
        assert_eq!(preds.len(), 3);
        for p in &preds {
            assert!(p.class < engine.n_classes());
            assert!(p.confidence > 0.0 && p.confidence <= 1.0, "{p:?}");
        }
        assert_eq!(preds[1].node, 5);
        // Deterministic: same query, same answer.
        assert_eq!(engine.predict(&[0, 5, 9]).unwrap(), preds);
    }

    #[test]
    fn out_of_range_and_empty_requests_are_typed_errors() {
        let engine = Engine::new(synthetic_snapshot(2, 6, 4, 2, 2, 8, 0)).unwrap();
        assert!(matches!(engine.predict(&[6]), Err(ServeError::BadRequest { .. })));
        assert!(matches!(engine.predict(&[]), Err(ServeError::BadRequest { .. })));
    }

    #[test]
    fn inconsistent_shapes_are_rejected_at_build() {
        // Drop a step tensor: parses fine, but the engine must refuse it.
        let mut snap = synthetic_snapshot(3, 6, 4, 2, 2, 8, 0);
        snap.export.steps[1].pop();
        match Engine::new(snap) {
            Err(ServeError::Snapshot(SnapshotError::Malformed { what })) => {
                assert!(what.contains("operator tensors"), "{what}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Truncate W_DP.
        let mut snap = synthetic_snapshot(3, 6, 4, 2, 2, 8, 0);
        snap.export.w_dp = Some(QMatrix::F32(DenseMatrix::zeros(6, 2)));
        assert!(Engine::new(snap).is_err());
        // Classifier that ends at the wrong width.
        let mut snap = synthetic_snapshot(3, 6, 4, 2, 2, 8, 0);
        snap.export.classifier.pop();
        assert!(Engine::new(snap).is_err());
    }
}
