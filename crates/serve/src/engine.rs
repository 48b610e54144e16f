//! Row-gather inference engine (DESIGN.md §13.2).
//!
//! ADPA's eval-mode forward pass is *row-local*: after the one-time Eq. 9
//! precompute, output row `v` depends on input rows `v` only. To answer
//! a request for nodes `{v₁…v_b}` the engine gathers those rows from the
//! propagated tensors (and `W_DP`) and records the forward on them with
//! amud-core's [`record_step`] and [`record_head`], the same two
//! functions the trainer records. Weights come from the snapshot and
//! there is no dropout. Each step is recorded on its own [`Tape`], which
//! is dropped once the step's output is read, so a request holds one
//! step's intermediates at a time. The result is **bit-identical** to
//! the full-graph tape forward read out at the same rows, pinned by
//! `matches_tape_forward_bit_for_bit_across_variants` below.
//!
//! **Quantized snapshots** stay stored quantized: row gathers decode only
//! the requested int8 feature rows ([`QMatrix::decode_row_into`]), and
//! each dense layer goes through [`amud_quant::matmul_deq`], which
//! decodes a quantized weight once per call into a temporary f32 matrix
//! and runs the f32 `matmul` on it. Because the decode is a single
//! rounding shared by both paths, a quantized engine is bit-identical to
//! an f32 engine built from the decoded export, pinned by
//! `quantized_engine_matches_dequantized_f32_engine_bit_for_bit`.

use crate::error::{ServeError, SnapshotError};
use crate::snapshot::Snapshot;
use amud_core::{record_head, record_step, DpAttention, QLinear, QuantizedExport};
use amud_nn::{DenseMatrix, NodeId, Tape};
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
        let layers = e.layers();
        let mut linear = |tape: &mut Tape, layer: &QLinear, x| {
            let xw = tape.constant(matmul_deq(tape.value(x), &layer.w));
            let b = tape.constant(layer.b.clone());
            tape.add_bias(xw, b)
        };
        let mut no_dropout = |_: &mut Tape, h: NodeId| h;
        let x0 = gather(&e.x0, nodes);
        let w_dp = e.w_dp.as_ref().map(|w| gather(w, nodes));
        // One tape per step, dropped once its output is read, so a request
        // holds one step's intermediates at a time.
        let step_reprs: Vec<DenseMatrix> = e
            .steps
            .iter()
            .map(|ops| {
                let mut tape = Tape::new();
                let inputs: Vec<NodeId> = std::iter::once(x0.clone())
                    .chain(ops.iter().map(|m| gather(m, nodes)))
                    .map(|m| tape.constant(m))
                    .collect();
                let w = w_dp.clone().map(|w| tape.constant(w));
                let h = record_step(&mut tape, &layers, &inputs, w, &mut linear, &mut no_dropout);
                tape.value(h).clone()
            })
            .collect();
        let mut tape = Tape::new();
        let step_reprs: Vec<NodeId> = step_reprs.into_iter().map(|h| tape.constant(h)).collect();
        let out = record_head(&mut tape, &layers, &step_reprs, &mut linear, &mut no_dropout);
        Ok(tape.value(out).clone())
    }

    /// Predictions (argmax class + softmax confidence) for the requested
    /// nodes, in request order.
    pub fn predict(&self, nodes: &[usize]) -> Result<Vec<Prediction>, ServeError> {
        let logits = self.logits(nodes)?;
        let classes = logits.argmax_rows();
        let mut tape = Tape::new();
        let logits = tape.constant(logits);
        let probs = tape.row_softmax(logits);
        let probs = tape.value(probs);
        Ok(nodes
            .iter()
            .zip(classes)
            .enumerate()
            .map(|(i, (&node, class))| Prediction { node, class, confidence: probs.get(i, class) })
            .collect())
    }
}

/// Gathers the requested rows of `m` into a `b × cols` f32 matrix,
/// decoding quantized rows on the fly (one rounding per element, the
/// same decode `dequantize` uses, so gathers are precision-agnostic).
fn gather(m: &QMatrix, nodes: &[usize]) -> DenseMatrix {
    let cols = m.cols();
    let mut out = DenseMatrix::zeros(nodes.len(), cols);
    for (i, &v) in nodes.iter().enumerate() {
        m.decode_row_into(v, out.row_mut(i));
    }
    out
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
            // …and scattered small batches, one with repeated, unsorted ids
            // as the batcher merges them, must reproduce exactly those rows.
            for batch in [[3usize, 0, 17 % d.n_nodes(), 5], [5, 0, 5, 3]] {
                let got = engine.logits(&batch).unwrap();
                for (i, &v) in batch.iter().enumerate() {
                    assert_eq!(got.row(i), full.row(v), "{variant:?} row {v} of {batch:?}");
                }
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
                let f32_twin = Snapshot { tag: q.tag, export: q.export.quantize(QuantSpec::F32) };
                let qe = Engine::new(q).expect("quantized snapshot must validate");
                assert_eq!(qe.spec(), spec);
                assert!(qe.n_bytes() < Engine::new(f32_twin.clone()).unwrap().n_bytes());
                let fe = Engine::new(f32_twin).unwrap();
                let all: Vec<usize> = (0..14).collect();
                for batch in [&all[..], &[0usize, 13, 7][..], &[5usize][..], &[5usize, 0, 5, 3][..]]
                {
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
