//! Plain-data export of a trained ADPA model for serving.
//!
//! The decoupled design (Sec. IV-D) makes inference topology-free: once
//! Eq. 9 propagation has run, predicting node `v` needs only row `v` of
//! the propagated tensors, row `v` of `W_DP`, and the shared dense
//! weights. [`AdpaExport`] is exactly that closure of state — every
//! matrix a serving process needs, copied out of the [`crate::Adpa`]
//! parameter bank into owned [`DenseMatrix`] values with no tape, bank,
//! or graph attached. `amud-serve` serializes this struct into crash-safe
//! snapshot artifacts and rebuilds its row-gather inference engine from
//! it; the round trip is bit-exact because every field is raw `f32` data.

use crate::adpa::{Adpa, DpAttention};
use crate::propagation::PropagatedFeatures;
use amud_nn::{DenseMatrix, Linear, ParamBank};
use amud_quant::{Precision, QMatrix, QuantSpec};

/// A dense layer's weights, copied out of the parameter bank:
/// `w` is `in × out`, `b` is `1 × out` (the tape's `x·W + b` convention).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearExport {
    /// The weight matrix (`in_dim × out_dim`).
    pub w: DenseMatrix,
    /// The bias row (`1 × out_dim`).
    pub b: DenseMatrix,
}

impl LinearExport {
    fn from_linear(bank: &ParamBank, lin: &Linear) -> Self {
        Self { w: bank.value(lin.w).clone(), b: bank.value(lin.b).clone() }
    }
}

/// Everything a serving process needs to reproduce ADPA's eval-mode
/// forward pass, as plain owned matrices. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdpaExport {
    /// The DP attention variant the weights were trained under.
    pub dp_attention: DpAttention,
    /// Propagation depth `K`.
    pub k_steps: usize,
    /// Hidden width of the fused representations.
    pub hidden: usize,
    /// Number of classes (the classifier's output width).
    pub n_classes: usize,
    /// Names of the DP operators in use (after selection), for reporting.
    pub pattern_names: Vec<String>,
    /// `W_DP` (`n × (k+1)`) when `dp_attention` is [`DpAttention::Original`].
    pub w_dp: Option<DenseMatrix>,
    /// Per-operator scorers (`f → 1` each) for Gate / Recursive.
    pub op_scorers: Vec<LinearExport>,
    /// The fuse layer (`fuse_in → hidden`).
    pub fuse: LinearExport,
    /// The hop-attention scorer (`K·hidden → K`) when hop attention is on.
    pub hop_scorer: Option<LinearExport>,
    /// The classifier MLP layers (ReLU between, none after the last).
    pub classifier: Vec<LinearExport>,
    /// The propagated features: `x0` plus `steps[l-1][g]` for step `l` and
    /// operator `g` — each `n × f`.
    pub x0: DenseMatrix,
    /// `steps[l-1][g]`: the step-`l` output of operator `g` (`n × f`).
    pub steps: Vec<Vec<DenseMatrix>>,
}

impl AdpaExport {
    /// Number of nodes the export can answer queries for.
    pub fn n_nodes(&self) -> usize {
        self.x0.rows()
    }

    /// Feature width of the propagated tensors.
    pub fn n_features(&self) -> usize {
        self.x0.cols()
    }

    /// Number of DP operators `k` in the (selected) family.
    pub fn n_patterns(&self) -> usize {
        self.pattern_names.len()
    }

    /// Total `f32` scalars across all matrices (a size/report helper).
    pub fn n_floats(&self) -> usize {
        let lin = |l: &LinearExport| l.w.as_slice().len() + l.b.as_slice().len();
        self.w_dp.as_ref().map_or(0, |m| m.as_slice().len())
            + self.op_scorers.iter().map(&lin).sum::<usize>()
            + lin(&self.fuse)
            + self.hop_scorer.as_ref().map_or(0, &lin)
            + self.classifier.iter().map(&lin).sum::<usize>()
            + self.x0.as_slice().len()
            + self.steps.iter().flatten().map(|m| m.as_slice().len()).sum::<usize>()
    }
}

/// A dense layer with the weight matrix stored at any [`Precision`].
///
/// The bias stays f32: it is `1 × out` (negligible bytes) and its add is
/// the last op before an activation, where quantization noise is least
/// welcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QLinear {
    /// The (possibly quantized) weight matrix (`in_dim × out_dim`).
    pub w: QMatrix,
    /// The f32 bias row (`1 × out_dim`).
    pub b: DenseMatrix,
}

impl QLinear {
    fn quantize(l: &LinearExport, p: Precision) -> Self {
        QLinear { w: QMatrix::quantize(&l.w, p), b: l.b.clone() }
    }

    fn wrap(l: LinearExport) -> Self {
        QLinear { w: QMatrix::F32(l.w), b: l.b }
    }

    fn dequantize(&self) -> LinearExport {
        LinearExport { w: self.w.dequantize(), b: self.b.clone() }
    }

    fn n_bytes(&self) -> usize {
        self.w.n_bytes() + self.b.as_slice().len() * 4
    }
}

/// [`AdpaExport`] with every matrix stored at a [`QuantSpec`]-chosen
/// precision: feature tensors (`x0`, `steps`, `W_DP`) under
/// `spec.features`, weight tensors (scorers, fuse, hop, classifier) under
/// `spec.weights`. This is the in-memory form of a snapshot — the serving
/// engine gathers and decodes only the requested feature rows from it,
/// so the byte reduction is resident, not just on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedExport {
    /// The DP attention variant the weights were trained under.
    pub dp_attention: DpAttention,
    /// Propagation depth `K`.
    pub k_steps: usize,
    /// Hidden width of the fused representations.
    pub hidden: usize,
    /// Number of classes (the classifier's output width).
    pub n_classes: usize,
    /// Names of the DP operators in use (after selection), for reporting.
    pub pattern_names: Vec<String>,
    /// `W_DP` (`n × (k+1)`) when `dp_attention` is [`DpAttention::Original`].
    pub w_dp: Option<QMatrix>,
    /// Per-operator scorers (`f → 1` each) for Gate / Recursive.
    pub op_scorers: Vec<QLinear>,
    /// The fuse layer (`fuse_in → hidden`).
    pub fuse: QLinear,
    /// The hop-attention scorer (`K·hidden → K`) when hop attention is on.
    pub hop_scorer: Option<QLinear>,
    /// The classifier MLP layers (ReLU between, none after the last).
    pub classifier: Vec<QLinear>,
    /// The quantized input features `X^(0)` (`n × f`).
    pub x0: QMatrix,
    /// `steps[l-1][g]`: the step-`l` output of operator `g` (`n × f`).
    pub steps: Vec<Vec<QMatrix>>,
}

impl QuantizedExport {
    /// Wraps an f32 export without quantizing (every matrix moves into a
    /// [`QMatrix::F32`]) — the identity embedding, bit-exact both ways.
    pub fn from_export(e: AdpaExport) -> Self {
        QuantizedExport {
            dp_attention: e.dp_attention,
            k_steps: e.k_steps,
            hidden: e.hidden,
            n_classes: e.n_classes,
            pattern_names: e.pattern_names,
            w_dp: e.w_dp.map(QMatrix::F32),
            op_scorers: e.op_scorers.into_iter().map(QLinear::wrap).collect(),
            fuse: QLinear::wrap(e.fuse),
            hop_scorer: e.hop_scorer.map(QLinear::wrap),
            classifier: e.classifier.into_iter().map(QLinear::wrap).collect(),
            x0: QMatrix::F32(e.x0),
            steps: e.steps.into_iter().map(|r| r.into_iter().map(QMatrix::F32).collect()).collect(),
        }
    }

    /// Post-training quantization of an export under `spec`.
    pub fn quantize(e: &AdpaExport, spec: QuantSpec) -> Self {
        let (fp, wp) = (spec.features, spec.weights);
        QuantizedExport {
            dp_attention: e.dp_attention,
            k_steps: e.k_steps,
            hidden: e.hidden,
            n_classes: e.n_classes,
            pattern_names: e.pattern_names.clone(),
            w_dp: e.w_dp.as_ref().map(|m| QMatrix::quantize(m, fp)),
            op_scorers: e.op_scorers.iter().map(|l| QLinear::quantize(l, wp)).collect(),
            fuse: QLinear::quantize(&e.fuse, wp),
            hop_scorer: e.hop_scorer.as_ref().map(|l| QLinear::quantize(l, wp)),
            classifier: e.classifier.iter().map(|l| QLinear::quantize(l, wp)).collect(),
            x0: QMatrix::quantize(&e.x0, fp),
            steps: e
                .steps
                .iter()
                .map(|r| r.iter().map(|m| QMatrix::quantize(m, fp)).collect())
                .collect(),
        }
    }

    /// Expands every matrix back to f32 (the canonical single-rounding
    /// decode). For a [`QuantizedExport::from_export`] wrap this is the
    /// exact inverse.
    pub fn dequantize(&self) -> AdpaExport {
        AdpaExport {
            dp_attention: self.dp_attention,
            k_steps: self.k_steps,
            hidden: self.hidden,
            n_classes: self.n_classes,
            pattern_names: self.pattern_names.clone(),
            w_dp: self.w_dp.as_ref().map(QMatrix::dequantize),
            op_scorers: self.op_scorers.iter().map(QLinear::dequantize).collect(),
            fuse: self.fuse.dequantize(),
            hop_scorer: self.hop_scorer.as_ref().map(QLinear::dequantize),
            classifier: self.classifier.iter().map(QLinear::dequantize).collect(),
            x0: self.x0.dequantize(),
            steps: self.steps.iter().map(|r| r.iter().map(QMatrix::dequantize).collect()).collect(),
        }
    }

    /// Number of nodes the export can answer queries for.
    pub fn n_nodes(&self) -> usize {
        self.x0.rows()
    }

    /// Feature width of the propagated tensors.
    pub fn n_features(&self) -> usize {
        self.x0.cols()
    }

    /// Number of DP operators `k` in the (selected) family.
    pub fn n_patterns(&self) -> usize {
        self.pattern_names.len()
    }

    /// Resident bytes of the per-node feature tensors (`x0`, `steps`,
    /// `W_DP`) — the part of the artifact a row-gather touches, and the
    /// numerator of `bench-serve`'s bytes-per-query.
    pub fn feature_bytes(&self) -> usize {
        self.x0.n_bytes()
            + self.steps.iter().flat_map(|r| r.iter().map(QMatrix::n_bytes)).sum::<usize>()
            + self.w_dp.as_ref().map_or(0, QMatrix::n_bytes)
    }

    /// Resident bytes of the shared weight tensors (scorers, fuse, hop,
    /// classifier, including f32 biases).
    pub fn weight_bytes(&self) -> usize {
        self.op_scorers.iter().map(QLinear::n_bytes).sum::<usize>()
            + self.fuse.n_bytes()
            + self.hop_scorer.as_ref().map_or(0, QLinear::n_bytes)
            + self.classifier.iter().map(QLinear::n_bytes).sum::<usize>()
    }

    /// Total resident payload bytes across every stored matrix.
    pub fn n_bytes(&self) -> usize {
        self.feature_bytes() + self.weight_bytes()
    }

    /// The `(features, weights)` precisions this export is stored at,
    /// read off the representative tensors.
    pub fn spec(&self) -> QuantSpec {
        QuantSpec { features: self.x0.precision(), weights: self.fuse.w.precision() }
    }
}

impl Adpa {
    /// Copies the trained weights and the propagated features out of the
    /// model into a self-contained [`AdpaExport`] (see the module docs).
    pub fn export(&self) -> AdpaExport {
        let bank = &self.bank;
        let cfg = self.config();
        let propagated: &PropagatedFeatures = &self.propagated;
        let steps = (1..=propagated.k_steps())
            .map(|l| (0..propagated.n_patterns()).map(|g| propagated.step(l, g).clone()).collect())
            .collect();
        AdpaExport {
            dp_attention: cfg.dp_attention,
            k_steps: cfg.k_steps,
            hidden: cfg.hidden,
            n_classes: self.classifier.out_dim(),
            pattern_names: self.pattern_names().to_vec(),
            w_dp: self.w_dp.map(|id| bank.value(id).clone()),
            op_scorers: self
                .op_scorers
                .iter()
                .map(|l| LinearExport::from_linear(bank, l))
                .collect(),
            fuse: LinearExport::from_linear(bank, &self.fuse),
            hop_scorer: self.hop_scorer.as_ref().map(|l| LinearExport::from_linear(bank, l)),
            classifier: self
                .classifier
                .layers
                .iter()
                .map(|l| LinearExport::from_linear(bank, l))
                .collect(),
            x0: propagated.x0().clone(),
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpa::AdpaConfig;
    use amud_datasets::{replica, ReplicaScale};
    use amud_train::GraphData;

    fn data(name: &str, seed: u64) -> GraphData {
        let d = replica(name, ReplicaScale::tiny(), seed);
        GraphData::new(
            &d.graph,
            d.features.clone(),
            d.split.train.clone(),
            d.split.val.clone(),
            d.split.test.clone(),
        )
        .unwrap()
    }

    #[test]
    fn export_shapes_are_consistent() {
        let d = data("texas", 0);
        let model = Adpa::new(&d, AdpaConfig::default(), 0).unwrap();
        let e = model.export();
        let k = e.n_patterns();
        assert_eq!(e.n_nodes(), d.n_nodes());
        assert_eq!(e.steps.len(), e.k_steps);
        for per_step in &e.steps {
            assert_eq!(per_step.len(), k);
            for m in per_step {
                assert_eq!(m.shape(), (e.n_nodes(), e.n_features()));
            }
        }
        let w_dp = e.w_dp.as_ref().expect("Original attention exports W_DP");
        assert_eq!(w_dp.shape(), (e.n_nodes(), k + 1));
        assert_eq!(e.fuse.w.shape(), ((k + 1) * e.n_features(), e.hidden));
        let hop = e.hop_scorer.as_ref().expect("hop attention on by default");
        assert_eq!(hop.w.shape(), (e.k_steps * e.hidden, e.k_steps));
        assert_eq!(e.classifier.last().unwrap().w.cols(), e.n_classes);
        assert!(e.n_floats() > 0);
    }

    #[test]
    fn export_is_deterministic() {
        let d = data("texas", 1);
        let model = Adpa::new(&d, AdpaConfig::default(), 1).unwrap();
        assert_eq!(model.export(), model.export());
    }

    #[test]
    fn f32_wrap_round_trips_bit_exactly() {
        let d = data("texas", 2);
        let model = Adpa::new(&d, AdpaConfig::default(), 2).unwrap();
        let e = model.export();
        let wrapped = QuantizedExport::from_export(e.clone());
        assert_eq!(wrapped.spec(), QuantSpec::F32);
        assert_eq!(wrapped.dequantize(), e);
        assert_eq!(wrapped.n_bytes(), e.n_floats() * 4);
    }

    #[test]
    fn quantized_export_shrinks_and_keeps_shapes() {
        let d = data("texas", 3);
        let model = Adpa::new(&d, AdpaConfig::default(), 3).unwrap();
        let e = model.export();
        let f32_bytes = e.n_floats() * 4;
        let q = QuantizedExport::quantize(&e, QuantSpec::uniform(Precision::I8));
        assert_eq!(q.spec(), QuantSpec::uniform(Precision::I8));
        assert_eq!(q.n_nodes(), e.n_nodes());
        assert_eq!(q.n_features(), e.n_features());
        let ratio = f32_bytes as f64 / q.n_bytes() as f64;
        assert!(ratio >= 3.0, "int8: ratio {ratio:.2} < 3.0");
        let back = q.dequantize();
        assert_eq!(back.k_steps, e.k_steps);
        assert_eq!(back.x0.shape(), e.x0.shape());
        // Mixed precision: features and weights quantize independently.
        let mixed = QuantizedExport::quantize(
            &e,
            QuantSpec { features: Precision::I8, weights: Precision::F32 },
        );
        assert_eq!(mixed.x0.precision(), Precision::I8);
        assert_eq!(mixed.fuse.w.precision(), Precision::F32);
        assert_eq!(mixed.classifier.last().unwrap().w.precision(), Precision::F32);
    }
}
