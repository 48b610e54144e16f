//! Plain-data export of a trained ADPA model for serving.
//!
//! The decoupled design (Sec. IV-D) makes inference topology-free: once
//! Eq. 9 propagation has run, predicting node `v` needs only row `v` of
//! the propagated tensors, row `v` of `W_DP`, and the shared dense
//! weights. [`QuantizedExport`] is exactly that closure of state, with no
//! tape, bank, or graph attached. [`Adpa::export`] copies it out of the
//! model at f32; [`QuantizedExport::quantize`] re-stores it at any
//! [`QuantSpec`] (`QuantSpec::F32` is the decode). `amud-serve`
//! serializes it into crash-safe snapshot artifacts and answers queries
//! from it through [`crate::adpa::record_step`] and
//! [`crate::adpa::record_head`].

use crate::adpa::{Adpa, AdpaLayers, DpAttention};
use crate::propagation::PropagatedFeatures;
use amud_nn::{DenseMatrix, Linear, ParamBank};
use amud_quant::{Precision, QMatrix, QuantSpec};

/// A dense layer with the weight matrix stored at any [`Precision`]:
/// `w` is `in × out`, `b` is `1 × out` (the tape's `x·W + b` convention).
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
    fn from_linear(bank: &ParamBank, lin: &Linear) -> Self {
        QLinear { w: QMatrix::F32(bank.value(lin.w).clone()), b: bank.value(lin.b).clone() }
    }

    fn quantize(&self, p: Precision) -> Self {
        QLinear { w: requantize(&self.w, p), b: self.b.clone() }
    }

    fn n_bytes(&self) -> usize {
        self.w.n_bytes() + self.b.as_slice().len() * 4
    }
}

/// `m` decoded to f32 (one rounding), then stored at `p`.
fn requantize(m: &QMatrix, p: Precision) -> QMatrix {
    QMatrix::quantize(&m.dequantize(), p)
}

/// Everything a serving process needs to reproduce ADPA's eval-mode
/// forward pass, each matrix stored at a [`QuantSpec`]-chosen precision:
/// feature tensors (`x0`, `steps`, `W_DP`) under `spec.features`, weight
/// tensors (scorers, fuse, hop, classifier) under `spec.weights`. This is
/// the in-memory form of a snapshot. The serving engine gathers and
/// decodes only the requested feature rows from it, so the byte
/// reduction is resident, not just on disk.
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
    /// The input features `X^(0)` (`n × f`).
    pub x0: QMatrix,
    /// `steps[l-1][g]`: the step-`l` output of operator `g` (`n × f`).
    pub steps: Vec<Vec<QMatrix>>,
}

impl QuantizedExport {
    /// Every matrix decoded to f32 and re-stored under `spec`: post-training
    /// quantization of an f32 export, or with [`QuantSpec::F32`] the
    /// canonical single-rounding decode of a quantized one.
    pub fn quantize(&self, spec: QuantSpec) -> Self {
        let (fp, wp) = (spec.features, spec.weights);
        QuantizedExport {
            dp_attention: self.dp_attention,
            k_steps: self.k_steps,
            hidden: self.hidden,
            n_classes: self.n_classes,
            pattern_names: self.pattern_names.clone(),
            w_dp: self.w_dp.as_ref().map(|m| requantize(m, fp)),
            op_scorers: self.op_scorers.iter().map(|l| l.quantize(wp)).collect(),
            fuse: self.fuse.quantize(wp),
            hop_scorer: self.hop_scorer.as_ref().map(|l| l.quantize(wp)),
            classifier: self.classifier.iter().map(|l| l.quantize(wp)).collect(),
            x0: requantize(&self.x0, fp),
            steps: self
                .steps
                .iter()
                .map(|r| r.iter().map(|m| requantize(m, fp)).collect())
                .collect(),
        }
    }

    /// The dense layers, as [`crate::adpa::record_step`] and
    /// [`crate::adpa::record_head`] read them.
    pub fn layers(&self) -> AdpaLayers<'_, QLinear> {
        AdpaLayers {
            dp_attention: self.dp_attention,
            op_scorers: &self.op_scorers,
            fuse: &self.fuse,
            hop_scorer: self.hop_scorer.as_ref(),
            classifier: &self.classifier,
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
    /// model into a self-contained f32 [`QuantizedExport`] (see the module
    /// docs).
    pub fn export(&self) -> QuantizedExport {
        let bank = &self.bank;
        let cfg = self.config();
        let propagated: &PropagatedFeatures = &self.propagated;
        let f32 = |m: &DenseMatrix| QMatrix::F32(m.clone());
        let steps = (1..=propagated.k_steps())
            .map(|l| (0..propagated.n_patterns()).map(|g| f32(propagated.step(l, g))).collect())
            .collect();
        let layer = |l: &Linear| QLinear::from_linear(bank, l);
        QuantizedExport {
            dp_attention: cfg.dp_attention,
            k_steps: cfg.k_steps,
            hidden: cfg.hidden,
            n_classes: self.classifier.out_dim(),
            pattern_names: self.pattern_names().to_vec(),
            w_dp: self.w_dp.map(|id| f32(bank.value(id))),
            op_scorers: self.op_scorers.iter().map(layer).collect(),
            fuse: layer(&self.fuse),
            hop_scorer: self.hop_scorer.as_ref().map(layer),
            classifier: self.classifier.layers.iter().map(layer).collect(),
            x0: f32(propagated.x0()),
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
        assert_eq!(e.spec(), QuantSpec::F32);
        assert_eq!(e.quantize(QuantSpec::F32), e);
        // Every parameter and every propagated float, four bytes each.
        let floats = model.bank.n_scalars() + model.propagated.n_floats();
        assert_eq!(e.n_bytes(), floats * 4);
    }

    #[test]
    fn quantized_export_shrinks_and_keeps_shapes() {
        let d = data("texas", 3);
        let model = Adpa::new(&d, AdpaConfig::default(), 3).unwrap();
        let e = model.export();
        let q = e.quantize(QuantSpec::uniform(Precision::I8));
        assert_eq!(q.spec(), QuantSpec::uniform(Precision::I8));
        assert_eq!(q.n_nodes(), e.n_nodes());
        assert_eq!(q.n_features(), e.n_features());
        let ratio = e.n_bytes() as f64 / q.n_bytes() as f64;
        assert!(ratio >= 3.0, "int8: ratio {ratio:.2} < 3.0");
        let back = q.quantize(QuantSpec::F32);
        assert_eq!(back.spec(), QuantSpec::F32);
        assert_eq!(back.k_steps, e.k_steps);
        assert_eq!(back.x0.shape(), e.x0.shape());
        // Mixed precision: features and weights quantize independently.
        let mixed = e.quantize(QuantSpec { features: Precision::I8, weights: Precision::F32 });
        assert_eq!(mixed.x0.precision(), Precision::I8);
        assert_eq!(mixed.fuse.w.precision(), Precision::F32);
        assert_eq!(mixed.classifier.last().unwrap().w.precision(), Precision::F32);
    }
}
