//! Static verification of recorded tapes.
//!
//! A [`crate::Tape`] is rebuilt every training step, so a defective model —
//! a parameter that never reaches the loss, a node nothing consumes, a
//! forward value that went NaN — silently trains the wrong model.
//! [`verify_tape`] walks the recorded tape *before* optimisation and
//! reports every such problem as a structured [`Diagnostic`]:
//!
//! * **gradient-flow analysis** — every parameter leaf must be an ancestor
//!   of the loss root, otherwise its gradient is identically zero and the
//!   parameter silently never trains;
//! * **dangling nodes** — a non-root node with no consumer is recorded work
//!   that cannot influence the loss;
//! * **duplicate edges** — the same operand wired twice into one op (e.g.
//!   `sub(x, x)`, which is constantly zero);
//! * **finite values** — NaN/Inf anywhere in a forward value.
//!
//! Shapes need no rule here: every op asserts its operand shapes when it
//! is recorded, each node holds the value its kernel produced, and a node
//! is appended only after its operands exist.

use crate::tape::{NodeId, Op};
use crate::Tape;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but plausibly intentional.
    Info,
    /// Almost certainly a modelling mistake; training still runs.
    Warning,
    /// The tape is wrong; training it trains garbage.
    Error,
}

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A parameter leaf is not an ancestor of the verification root: its
    /// gradient is identically zero.
    UnreachableParam,
    /// A non-root node no other op consumes.
    DanglingNode,
    /// One op lists the same operand more than once.
    DuplicateEdge,
    /// A forward value contains NaN or ±Inf.
    NonFinite,
}

impl Rule {
    /// Stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnreachableParam => "unreachable-param",
            Rule::DanglingNode => "dangling-node",
            Rule::DuplicateEdge => "duplicate-edge",
            Rule::NonFinite => "non-finite",
        }
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The tape node the finding is anchored to.
    pub op_id: NodeId,
    pub severity: Severity,
    pub rule: Rule,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "[{sev}] node {}: {} — {}", self.op_id, self.rule.name(), self.message)
    }
}

/// True if any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics one per line (empty string when clean).
pub fn render(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
}

/// Verifies a recorded tape whose loss (or output) node is `root`; see the
/// module docs for the rules. Panics if `root` is not a node of `tape`.
pub fn verify_tape(tape: &Tape, root: NodeId) -> Vec<Diagnostic> {
    let n = tape.len();
    let inputs: Vec<Vec<NodeId>> = (0..n).map(|id| tape.op(id).inputs()).collect();
    let mut diags = Vec::new();

    // Duplicate edges. sub(x, x) is constantly zero — almost certainly a
    // bug. Other repeats (x ⊙ x, concat of the same block) are plausible
    // idioms.
    for (id, ins) in inputs.iter().enumerate() {
        let mut seen = ins.clone();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            let sub = matches!(tape.op(id), Op::Sub(..));
            diags.push(Diagnostic {
                op_id: id,
                severity: if sub { Severity::Warning } else { Severity::Info },
                rule: Rule::DuplicateEdge,
                message: if sub {
                    "sub(x, x) is constantly zero"
                } else {
                    "the same operand is wired in more than once"
                }
                .into(),
            });
        }
    }

    // Gradient flow: every parameter leaf must be an ancestor of the root.
    let mut reachable = vec![false; n];
    reachable[root] = true;
    for id in (0..=root).rev() {
        if reachable[id] {
            for &input in &inputs[id] {
                reachable[input] = true;
            }
        }
    }
    for (id, &reached) in reachable.iter().enumerate() {
        if let Op::Leaf { param: Some(pid) } = tape.op(id) {
            if !reached {
                diags.push(Diagnostic {
                    op_id: id,
                    severity: Severity::Warning,
                    rule: Rule::UnreachableParam,
                    message: format!(
                        "parameter {pid:?} never reaches the root: its gradient is identically zero"
                    ),
                });
            }
        }
    }

    // Dangling nodes: anything (except the root) no op consumes.
    let mut consumed = vec![false; n];
    for &input in inputs.iter().flatten() {
        consumed[input] = true;
    }
    for (id, &used) in consumed.iter().enumerate() {
        if id != root && !used {
            diags.push(Diagnostic {
                op_id: id,
                severity: Severity::Warning,
                rule: Rule::DanglingNode,
                message: "no op consumes this node and it is not the root".into(),
            });
        }
    }

    for id in 0..n {
        let v = tape.value(id);
        let bad = v.as_slice().iter().filter(|x| !x.is_finite()).count();
        if bad > 0 {
            diags.push(Diagnostic {
                op_id: id,
                severity: Severity::Error,
                rule: Rule::NonFinite,
                message: format!(
                    "{bad} non-finite entr{} in a {} × {} value",
                    if bad == 1 { "y" } else { "ies" },
                    v.rows(),
                    v.cols()
                ),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;
    use crate::optim::ParamBank;

    fn only_rule(diags: &[Diagnostic], rule: Rule) -> &Diagnostic {
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
        assert_eq!(hits.len(), 1, "expected exactly one {rule:?}, got: {}", render(diags));
        hits[0]
    }

    #[test]
    fn clean_tape_produces_no_diagnostics() {
        let mut bank = ParamBank::new();
        let w = bank.add(DenseMatrix::ones(3, 2));
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(4, 3));
        let wn = tape.param(&bank, w);
        let y = tape.matmul(x, wn);
        let a = tape.relu(y);
        let loss = tape.mean_all(a);
        let diags = verify_tape(&tape, loss);
        assert!(diags.is_empty(), "{}", render(&diags));
    }

    #[test]
    fn unused_param_is_unreachable_and_dangling() {
        let mut bank = ParamBank::new();
        let used = bank.add(DenseMatrix::ones(3, 2));
        let orphan = bank.add(DenseMatrix::ones(2, 2));
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(4, 3));
        let wn = tape.param(&bank, used);
        let _orphan_node = tape.param(&bank, orphan);
        let y = tape.matmul(x, wn);
        let loss = tape.mean_all(y);
        let diags = verify_tape(&tape, loss);
        let d = only_rule(&diags, Rule::UnreachableParam);
        assert_eq!(d.op_id, 2);
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("identically zero"), "{}", d.message);
        assert_eq!(only_rule(&diags, Rule::DanglingNode).op_id, 2);
        assert!(!has_errors(&diags), "reachability findings are warnings");
    }

    #[test]
    fn detects_dangling_node() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(2, 2));
        // Node 1 is consumed by nothing; the root chain is 0 → 2.
        let _unused = tape.relu(x);
        let loss = tape.mean_all(x);
        let diags = verify_tape(&tape, loss);
        let d = only_rule(&diags, Rule::DanglingNode);
        assert_eq!(d.op_id, 1);
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(diags.len(), 1, "{}", render(&diags));
    }

    #[test]
    fn detects_duplicate_edge_in_sub() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(2, 2));
        let zero = tape.sub(x, x);
        let loss = tape.mean_all(zero);
        let diags = verify_tape(&tape, loss);
        let d = only_rule(&diags, Rule::DuplicateEdge);
        assert_eq!(d.op_id, 1);
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("constantly zero"), "{}", d.message);
    }

    #[test]
    fn duplicate_edge_elsewhere_is_only_informational() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(2, 2));
        let sq = tape.mul(x, x);
        let loss = tape.mean_all(sq);
        let diags = verify_tape(&tape, loss);
        assert_eq!(only_rule(&diags, Rule::DuplicateEdge).severity, Severity::Info);
    }

    #[test]
    fn reports_non_finite_entries() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::from_vec(1, 2, vec![f32::NAN, 1.0]));
        let loss = tape.mean_all(x);
        let diags = verify_tape(&tape, loss);
        // NaN propagates through the mean: both nodes are flagged.
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == Rule::NonFinite).collect();
        assert_eq!(hits.len(), 2, "{}", render(&diags));
        assert!(hits[0].message.contains("1 non-finite entry in a 1 × 2 value"));
        assert!(has_errors(&diags));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn root_outside_the_tape_panics() {
        let mut tape = Tape::new();
        tape.constant(DenseMatrix::ones(1, 1));
        verify_tape(&tape, 3);
    }

    #[test]
    fn diagnostics_render_with_rule_names() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(2, 2));
        let zero = tape.sub(x, x);
        let loss = tape.mean_all(zero);
        let text = render(&verify_tape(&tape, loss));
        assert!(text.contains("[warning] node 1: duplicate-edge — sub(x, x)"), "{text}");
    }
}
