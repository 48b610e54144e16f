//! The model trait shared by ADPA and every baseline.

use crate::data::GraphData;
use amud_nn::{NodeId, ParamBank, Rows, Tape};
use rand::rngs::StdRng;

/// A trainable node classifier.
///
/// A model is constructed against a specific [`GraphData`] (pre-computing
/// whatever operators it needs — normalised adjacencies, polynomial bases,
/// propagated features) and then repeatedly records its forward pass onto a
/// fresh tape per training step. The returned node must hold `n × C` logits.
pub trait Model {
    /// The parameter bank holding all trainable weights.
    fn bank(&self) -> &ParamBank;

    /// Mutable access for the optimiser.
    fn bank_mut(&mut self) -> &mut ParamBank;

    /// Records the forward pass; returns the logits node (`n × n_classes`).
    ///
    /// `training` toggles dropout; `rng` is only consumed when training
    /// (evaluation must be deterministic).
    fn forward(
        &self,
        tape: &mut Tape,
        data: &GraphData,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId;

    /// Records the forward pass for the rows `rows.ids()` only; returns a
    /// `rows.len() × n_classes` logits node whose row `i` is bit-identical
    /// to row `rows.ids()[i]` of [`Model::forward`] under the same `rng`
    /// state, and which consumes the same RNG stream. The trainer trains
    /// and evaluates through this method.
    ///
    /// The default runs the full forward and gathers the rows, which is
    /// exact for any model, graph-coupled ones included. Node-wise models
    /// (ADPA after its Eq. 9 precompute) override it to compute only the
    /// selected rows.
    fn forward_rows(
        &self,
        tape: &mut Tape,
        data: &GraphData,
        rows: &Rows,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let logits = self.forward(tape, data, training, rng);
        tape.gather_rows(logits, rows)
    }

    /// Human-readable model name for experiment tables.
    fn name(&self) -> &'static str;

    /// Number of trainable scalars (diagnostics).
    fn n_parameters(&self) -> usize {
        self.bank().n_scalars()
    }
}
