//! ADPA: Adaptive Directed Pattern Aggregation (Sec. IV).
//!
//! The model is the composition of four pieces:
//!
//! 1. **DP-guided feature propagation** (Eq. 9) — precomputed once at
//!    construction via [`crate::propagation::PropagatedFeatures`]; training
//!    never touches the sparse topology again (decoupled design, Sec. IV-D).
//! 2. **Node-wise DP attention** (Eq. 10) — at every propagation step `l`,
//!    the `k` operator features plus the initial residual are weighted
//!    *per node* and fused to a hidden representation. Four interchangeable
//!    variants reproduce the Table VII ablation:
//!    [`DpAttention::Original`] (free node-adaptive weights, the paper's
//!    Eq. 10), [`DpAttention::Gate`] (sigmoid gates computed from the
//!    features), [`DpAttention::Recursive`] (softmax attention logits from
//!    per-operator projections), [`DpAttention::Jk`] (plain jumping-
//!    knowledge concatenation), and [`DpAttention::None`] (unweighted mean;
//!    the "w/o DP attention" row).
//! 3. **Node-wise hop attention** (Eq. 11) — a per-node softmax over the
//!    `K` step representations; disabling it falls back to a mean (the
//!    "w/o Hop attention" row).
//! 4. An MLP classifier head.
//!
//! After step 1 every op is node-wise, so pieces 2–4 are written once, as
//! two tape functions over already-gathered rows: [`record_step`] (one
//! step of Eq. 10) and [`record_head`] (Eq. 11 and the classifier). They
//! read the dense layers through a `linear` hook and apply dropout
//! through a `dropout` hook. [`Model::forward_rows`] calls them with the
//! parameter bank over a row subset: it gathers those rows of the
//! operator features and of `W_DP`, and draws each dropout mask at the
//! full shape before gathering it. The trainer runs it over the `train`
//! rows and the `val ∪ test` rows, bit-identical to the full forward.
//! The serving engine (`amud-serve`) calls the same two functions with
//! snapshot weights and no dropout.
//!
//! Optionally, ADPA applies the Sec. IV-B **DP selection** rule: operators
//! are ranked by their label correlation `r(G_d, N)` on the *training*
//! labels and only the top `r` are kept.

use crate::amud::rank_patterns;
use crate::propagation::PropagatedFeatures;
use amud_nn::{Activation, DenseMatrix, Linear, Mlp, NodeId, ParamBank, ParamId, Rows, Tape};
use amud_train::{GraphData, Model, TrainError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The node-wise DP attention variant (Table VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpAttention {
    /// Eq. 10: free node-adaptive weights `W_DP ∈ R^{n×(k+1)}`.
    Original,
    /// Sigmoid gates computed from each operator's features.
    Gate,
    /// Softmax attention over per-operator projections.
    Recursive,
    /// Jumping-knowledge: plain concatenation, no weighting.
    Jk,
    /// Ablation: unweighted mean of operator features.
    None,
}

/// ADPA hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdpaConfig {
    /// Maximum DP order `N`; the operator family has `k = 2¹+…+2ᴺ` members.
    pub max_order: usize,
    /// Propagation steps `K`.
    pub k_steps: usize,
    /// Hidden width of the fused representations.
    pub hidden: usize,
    /// Depth of the classifier MLP (≥ 1).
    pub classifier_layers: usize,
    /// Dropout probability on hidden activations during training.
    pub dropout: f32,
    /// How the DP operators' features are weighted into one (Eq. 10).
    pub dp_attention: DpAttention,
    /// Disable for the "w/o Hop Attention" ablation.
    pub hop_attention: bool,
    /// Keep only the top-`r` operators by training-label correlation
    /// (Sec. IV-B DP selection). `None` keeps all.
    pub dp_select: Option<usize>,
    /// Eq. 1 convolution kernel coefficient `r ∈ [0, 1]` applied to every
    /// DP propagation operator (the paper tunes this in 0..1; 0 =
    /// row-stochastic, 0.5 = symmetric).
    pub conv_r: f32,
}

impl Default for AdpaConfig {
    fn default() -> Self {
        Self {
            max_order: 2,
            // Fig. 6 sweeps K per dataset; K = 2 is the strongest setting at
            // replica scale on both paradigms (deeper propagation oversmooths
            // and adds data-starved W_DP columns on small graphs).
            k_steps: 2,
            hidden: 64,
            classifier_layers: 2,
            dropout: 0.4,
            dp_attention: DpAttention::Original,
            hop_attention: true,
            dp_select: None,
            conv_r: 0.0,
        }
    }
}

/// The ADPA model, bound to one graph.
pub struct Adpa {
    pub(crate) bank: ParamBank,
    cfg: AdpaConfig,
    /// Cached Eq. 9 output.
    pub(crate) propagated: PropagatedFeatures,
    /// Names of the operators actually in use (after DP selection).
    pattern_names: Vec<String>,
    /// `W_DP` for [`DpAttention::Original`].
    pub(crate) w_dp: Option<ParamId>,
    /// Per-operator scorers for Gate / Recursive.
    pub(crate) op_scorers: Vec<Linear>,
    /// Fuses the (weighted) concatenation of operators to `hidden` dims.
    pub(crate) fuse: Linear,
    /// Hop-attention scorer: `K·hidden → K`.
    pub(crate) hop_scorer: Option<Linear>,
    pub(crate) classifier: Mlp,
}

impl Adpa {
    /// Builds ADPA for a graph: materialises the DP operators, optionally
    /// selects them by training-label correlation, runs Eq. 9, and
    /// initialises all parameters.
    ///
    /// Operator construction and propagation go through the
    /// [`crate::precompute`] store, so repeated constructions over the same
    /// graph — every seed of a sweep, every `k_steps`/`conv_r` grid point —
    /// reuse one materialisation and one propagation (bit-identically;
    /// `AMUD_CACHE=off` disables the reuse without changing any output).
    /// A malformed configuration or operator/feature mismatch is a typed
    /// [`TrainError`], so one bad hyperpoint degrades to a recorded failure
    /// instead of aborting a sweep.
    pub fn new(data: &GraphData, cfg: AdpaConfig, seed: u64) -> Result<Self, TrainError> {
        if cfg.max_order < 1 {
            return Err(TrainError::bad_input("need at least order-1 patterns"));
        }
        if cfg.classifier_layers < 1 {
            return Err(TrainError::bad_input("classifier needs at least one layer"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let (full, key) = crate::precompute::operators(&data.adj, cfg.max_order, cfg.conv_r)?;
        // On symmetric inputs (Paradigm I) the pattern family collapses —
        // A = Aᵀ makes all same-order operators identical. Keep one
        // representative per distinct sparsity pattern so the DP attention
        // is not spread across redundant copies.
        let ops = full.operators();
        let mut keep: Vec<usize> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if !keep.iter().any(|&j| ops[j].same_pattern(op)) {
                keep.push(i);
            }
        }
        if let Some(r) = cfg.dp_select {
            let ranked = rank_patterns(
                keep.iter().map(|&i| &*ops[i]),
                &data.labels,
                data.n_classes,
                Some(&data.train),
            );
            keep = ranked.iter().take(r.max(1).min(keep.len())).map(|&(i, _)| keep[i]).collect();
        }
        // Selecting shares the cached matrices, and a `keep` that drops or
        // reorders nothing leaves the key unchanged, so the propagated
        // tensor of the full set is still hit.
        let patterns = full.select(&keep);
        let key = key.with_selection(&keep);
        let pattern_names = patterns.patterns().iter().map(|p| p.name()).collect();
        let propagated =
            crate::precompute::propagated(&key, &patterns, &data.features, cfg.k_steps)?;

        let n = data.n_nodes();
        let f = data.n_features();
        let k = patterns.len();
        let mut bank = ParamBank::new();

        let w_dp = matches!(cfg.dp_attention, DpAttention::Original)
            .then(|| bank.add(DenseMatrix::ones(n, k + 1)));
        let op_scorers = match cfg.dp_attention {
            DpAttention::Gate | DpAttention::Recursive => {
                (0..=k).map(|_| Linear::new(&mut bank, f, 1, &mut rng)).collect()
            }
            _ => Vec::new(),
        };
        let fuse_in = match cfg.dp_attention {
            DpAttention::None => f,
            _ => (k + 1) * f,
        };
        let fuse = Linear::new(&mut bank, fuse_in, cfg.hidden, &mut rng);
        let hop_scorer = cfg
            .hop_attention
            .then(|| Linear::new(&mut bank, cfg.k_steps * cfg.hidden, cfg.k_steps, &mut rng));
        let mut dims = vec![cfg.hidden];
        for _ in 1..cfg.classifier_layers {
            dims.push(cfg.hidden);
        }
        dims.push(data.n_classes);
        let classifier = Mlp::new(&mut bank, &dims, Activation::Relu, cfg.dropout, &mut rng);

        Ok(Self {
            bank,
            cfg,
            propagated,
            pattern_names,
            w_dp,
            op_scorers,
            fuse,
            hop_scorer,
            classifier,
        })
    }

    /// The DP operator names in use (after selection), e.g. `["A", "Aᵀ",
    /// "A·A", …]`.
    pub fn pattern_names(&self) -> &[String] {
        &self.pattern_names
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &AdpaConfig {
        &self.cfg
    }
}

/// ADPA's dense layers after Eq. 9, borrowed from wherever the weights
/// live: the parameter bank while training ([`Linear`]), a snapshot while
/// serving ([`crate::QLinear`]).
#[derive(Debug)]
pub struct AdpaLayers<'a, L> {
    /// How the operator features are weighted (Eq. 10).
    pub dp_attention: DpAttention,
    /// Per-operator scorers (`f → 1` each) for Gate / Recursive.
    pub op_scorers: &'a [L],
    /// The fuse layer (`fuse_in → hidden`).
    pub fuse: &'a L,
    /// The hop-attention scorer (`K·hidden → K`) when hop attention is on.
    pub hop_scorer: Option<&'a L>,
    /// The classifier layers (ReLU between, none after the last).
    pub classifier: &'a [L],
}

/// Records one step of Eq. 10 over already-gathered rows: DP attention
/// over `inputs` (`X^(0)` first, then the step's operator features),
/// dropout, the fuse layer and ReLU. `w_dp` is the gathered `W_DP` node,
/// which [`DpAttention::Original`] needs. `linear(tape, layer, x)` records
/// `x · W + b` from the caller's weights; `dropout(tape, h)` returns `h`
/// or a dropped-out copy.
pub fn record_step<L>(
    tape: &mut Tape,
    layers: &AdpaLayers<'_, L>,
    inputs: &[NodeId],
    w_dp: Option<NodeId>,
    linear: &mut impl FnMut(&mut Tape, &L, NodeId) -> NodeId,
    dropout: &mut impl FnMut(&mut Tape, NodeId) -> NodeId,
) -> NodeId {
    let fused_input = match layers.dp_attention {
        DpAttention::Original => {
            let Some(w) = w_dp else {
                unreachable!(
                    "Adpa::new allocates W_DP for Original; snapshots lacking it fail validation"
                )
            };
            let weighted: Vec<NodeId> =
                inputs.iter().enumerate().map(|(j, &x)| tape.col_scale(w, j, x)).collect();
            tape.concat_cols(&weighted)
        }
        DpAttention::Gate => {
            let weighted: Vec<NodeId> = inputs
                .iter()
                .zip(layers.op_scorers)
                .map(|(&x, scorer)| {
                    let logit = linear(tape, scorer, x);
                    let gate = tape.sigmoid(logit);
                    tape.col_scale(gate, 0, x)
                })
                .collect();
            tape.concat_cols(&weighted)
        }
        DpAttention::Recursive => {
            let logits: Vec<NodeId> = inputs
                .iter()
                .zip(layers.op_scorers)
                .map(|(&x, scorer)| {
                    let e = linear(tape, scorer, x);
                    tape.leaky_relu(e, 0.2)
                })
                .collect();
            let e = tape.concat_cols(&logits);
            let w = tape.row_softmax(e);
            let weighted: Vec<NodeId> =
                inputs.iter().enumerate().map(|(j, &x)| tape.col_scale(w, j, x)).collect();
            tape.concat_cols(&weighted)
        }
        DpAttention::Jk => tape.concat_cols(inputs),
        DpAttention::None => {
            // Unweighted mean of all operator features.
            let mut acc = inputs[0];
            for &x in &inputs[1..] {
                acc = tape.add(acc, x);
            }
            tape.scale(acc, 1.0 / inputs.len() as f32)
        }
    };
    let h = dropout(tape, fused_input);
    let lin = linear(tape, layers.fuse, h);
    tape.relu(lin)
}

/// Records Eq. 11 and the classifier over already-gathered rows: hop
/// attention across the `K` step representations (their mean when hop
/// attention is off), then each classifier layer after dropout, with ReLU
/// between layers. The hooks are [`record_step`]'s.
pub fn record_head<L>(
    tape: &mut Tape,
    layers: &AdpaLayers<'_, L>,
    step_reprs: &[NodeId],
    linear: &mut impl FnMut(&mut Tape, &L, NodeId) -> NodeId,
    dropout: &mut impl FnMut(&mut Tape, NodeId) -> NodeId,
) -> NodeId {
    let mut h = if let Some(hop) = layers.hop_scorer {
        let stacked = tape.concat_cols(step_reprs);
        let e = linear(tape, hop, stacked);
        let act = tape.leaky_relu(e, 0.2);
        let w = tape.row_softmax(act);
        let mut acc = tape.col_scale(w, 0, step_reprs[0]);
        for (l, &h) in step_reprs.iter().enumerate().skip(1) {
            let scaled = tape.col_scale(w, l, h);
            acc = tape.add(acc, scaled);
        }
        acc
    } else {
        let mut acc = step_reprs[0];
        for &h in &step_reprs[1..] {
            acc = tape.add(acc, h);
        }
        tape.scale(acc, 1.0 / step_reprs.len() as f32)
    };
    let last = layers.classifier.len() - 1;
    for (i, layer) in layers.classifier.iter().enumerate() {
        h = dropout(tape, h);
        h = linear(tape, layer, h);
        if i != last {
            h = tape.relu(h);
        }
    }
    h
}

impl Model for Adpa {
    fn bank(&self) -> &ParamBank {
        &self.bank
    }

    fn bank_mut(&mut self) -> &mut ParamBank {
        &mut self.bank
    }

    fn forward(
        &self,
        tape: &mut Tape,
        data: &GraphData,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let rows = Rows::all(self.propagated.x0().rows());
        self.forward_rows(tape, data, &rows, training, rng)
    }

    fn forward_rows(
        &self,
        tape: &mut Tape,
        _data: &GraphData,
        rows: &Rows,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let layers = AdpaLayers {
            dp_attention: self.cfg.dp_attention,
            op_scorers: &self.op_scorers,
            fuse: &self.fuse,
            hop_scorer: self.hop_scorer.as_ref(),
            classifier: &self.classifier.layers,
        };
        let bank = &self.bank;
        let p = self.cfg.dropout;
        let mut linear = |tape: &mut Tape, layer: &Linear, x| layer.forward(tape, bank, x);
        let mut dropout = |tape: &mut Tape, h| {
            if !(training && p > 0.0) {
                return h;
            }
            let mask = rows.dropout_mask(rng, tape.value(h).cols(), p);
            tape.dropout(h, mask)
        };
        // Level 1: DP attention per step (Eq. 10). Each step records its
        // own W_DP leaf: `apply_grads` sums the leaves in recording order,
        // and one shared leaf would reorder that sum for K ≥ 3.
        let step_reprs: Vec<NodeId> = (1..=self.cfg.k_steps)
            .map(|l| {
                let op_feats = self.propagated.step_with_residual(l);
                let inputs: Vec<NodeId> =
                    op_feats.iter().map(|m| tape.constant(rows.gather(m))).collect();
                let w_dp = self.w_dp.map(|id| {
                    let w = tape.param(bank, id);
                    tape.gather_rows(w, rows)
                });
                record_step(tape, &layers, &inputs, w_dp, &mut linear, &mut dropout)
            })
            .collect();
        // Level 2: hop attention across steps (Eq. 11), then the classifier.
        record_head(tape, &layers, &step_reprs, &mut linear, &mut dropout)
    }

    fn name(&self) -> &'static str {
        "ADPA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amud_datasets::{replica, ReplicaScale};
    use amud_train::{train, TrainConfig};

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

    fn quick_cfg() -> TrainConfig {
        TrainConfig { epochs: 60, patience: 0, lr: 0.01, weight_decay: 5e-4, ..Default::default() }
    }

    #[test]
    fn adpa_operator_count_matches_paper() {
        let d = data("cora_ml", 0);
        let adpa = Adpa::new(&d, AdpaConfig { max_order: 2, ..Default::default() }, 0).unwrap();
        assert_eq!(adpa.pattern_names().len(), 6, "order 2 → k = 6");
        let adpa1 = Adpa::new(&d, AdpaConfig { max_order: 1, ..Default::default() }, 0).unwrap();
        assert_eq!(adpa1.pattern_names().len(), 2, "order 1 → k = 2");
    }

    #[test]
    fn undirected_input_collapses_pattern_family() {
        // On a symmetric adjacency A = Aᵀ: the six order-≤2 operators
        // reduce to two distinct ones ({A} and {A·A}).
        let d = data("cora_ml", 0).to_undirected();
        let adpa = Adpa::new(&d, AdpaConfig { max_order: 2, ..Default::default() }, 0).unwrap();
        assert_eq!(adpa.pattern_names().len(), 2, "{:?}", adpa.pattern_names());
    }

    #[test]
    fn adpa_beats_chance_on_homophilous_replica() {
        let d = data("cora_ml", 1);
        let mut model = Adpa::new(&d, AdpaConfig::default(), 1).unwrap();
        let result = train(&mut model, &d, quick_cfg(), 1).unwrap();
        // 7 classes → chance ≈ 14%.
        assert!(result.test_acc > 0.4, "test accuracy {}", result.test_acc);
    }

    #[test]
    fn adpa_beats_chance_on_heterophilous_directed_replica() {
        let d = data("chameleon", 2);
        let mut model = Adpa::new(&d, AdpaConfig::default(), 2).unwrap();
        let result = train(&mut model, &d, quick_cfg(), 2).unwrap();
        // 5 classes → chance 20%; weak features mean the directed topology
        // must be exploited to clear it.
        assert!(result.test_acc > 0.3, "test accuracy {}", result.test_acc);
    }

    #[test]
    fn all_attention_variants_train() {
        let d = data("texas", 3);
        for variant in [
            DpAttention::Original,
            DpAttention::Gate,
            DpAttention::Recursive,
            DpAttention::Jk,
            DpAttention::None,
        ] {
            let cfg = AdpaConfig { dp_attention: variant, k_steps: 2, ..Default::default() };
            let mut model = Adpa::new(&d, cfg, 3).unwrap();
            let result = train(&mut model, &d, quick_cfg(), 3).unwrap();
            assert!(result.test_acc > 0.2, "{variant:?} accuracy {}", result.test_acc);
        }
    }

    #[test]
    fn hop_attention_off_still_trains() {
        let d = data("texas", 4);
        let cfg = AdpaConfig { hop_attention: false, ..Default::default() };
        let mut model = Adpa::new(&d, cfg, 4).unwrap();
        let result = train(&mut model, &d, quick_cfg(), 4).unwrap();
        assert!(result.test_acc > 0.2);
    }

    #[test]
    fn conv_coefficient_changes_propagation() {
        let d = data("chameleon", 8);
        let row = Adpa::new(&d, AdpaConfig { conv_r: 0.0, ..Default::default() }, 8).unwrap();
        let sym = Adpa::new(&d, AdpaConfig { conv_r: 0.5, ..Default::default() }, 8).unwrap();
        // Same architecture, different propagation — both train fine.
        let mut rng = StdRng::seed_from_u64(0);
        let mut t1 = Tape::new();
        let l1 = row.forward(&mut t1, &d, false, &mut rng);
        let mut t2 = Tape::new();
        let l2 = sym.forward(&mut t2, &d, false, &mut rng);
        assert_ne!(t1.value(l1), t2.value(l2), "conv_r must alter the forward pass");
    }

    #[test]
    fn dp_selection_reduces_operator_set() {
        let d = data("chameleon", 5);
        let cfg = AdpaConfig { dp_select: Some(3), ..Default::default() };
        let model = Adpa::new(&d, cfg, 5).unwrap();
        assert_eq!(model.pattern_names().len(), 3);
    }

    #[test]
    fn eval_forward_is_deterministic() {
        let d = data("citeseer", 6);
        let model = Adpa::new(&d, AdpaConfig::default(), 6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let run = |rng: &mut StdRng| {
            let mut tape = Tape::new();
            let logits = model.forward(&mut tape, &d, false, rng);
            tape.value(logits).clone()
        };
        assert_eq!(run(&mut rng), run(&mut rng));
    }

    #[test]
    fn parameter_count_grows_with_order() {
        let d = data("texas", 7);
        let p1 = Adpa::new(&d, AdpaConfig { max_order: 1, ..Default::default() }, 7)
            .unwrap()
            .n_parameters();
        let p2 = Adpa::new(&d, AdpaConfig { max_order: 2, ..Default::default() }, 7)
            .unwrap()
            .n_parameters();
        assert!(p2 > p1, "order-2 ADPA must have more parameters ({p1} vs {p2})");
    }
}
