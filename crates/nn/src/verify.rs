//! Static verification of recorded tapes.
//!
//! A [`crate::Tape`] is rebuilt every training step, so a malformed graph —
//! an operand with incompatible shape, a parameter that never reaches the
//! loss, a node nothing consumes — either panics deep inside a kernel or
//! silently trains the wrong model. [`TapeVerifier`] walks the op graph
//! *before* optimisation and reports every problem it can find as a
//! structured [`Diagnostic`] instead of panicking:
//!
//! * **shape inference** — recomputes the output shape of every op from its
//!   operand shapes and compares against what the tape recorded;
//! * **gradient-flow analysis** — every parameter leaf must be an ancestor
//!   of the loss root, otherwise its gradient is identically zero and the
//!   parameter silently never trains;
//! * **dangling nodes** — a non-root node with no consumer is recorded work
//!   that cannot influence the loss;
//! * **duplicate edges** — the same operand wired twice into one op (e.g.
//!   `sub(x, x)`, which is constantly zero);
//! * **finite values** (opt-in) — NaN/Inf anywhere in a forward value.
//!
//! The structural checks run on a [`GraphSpec`] — a value-free export of the
//! tape ([`crate::Tape::export_spec`]) — so tests can hand-build defective
//! graphs that the eager tape-recording API would reject up front.

use crate::optim::ParamId;
use crate::tape::NodeId;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but plausibly intentional.
    Info,
    /// Almost certainly a modelling mistake; training still runs.
    Warning,
    /// The graph is wrong; executing it panics or trains garbage.
    Error,
}

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// An op's operand shapes are incompatible, or the recorded output
    /// shape disagrees with shape inference.
    ShapeMismatch,
    /// A parameter leaf is not an ancestor of the verification root: its
    /// gradient is identically zero.
    UnreachableParam,
    /// A non-root node no other op consumes.
    DanglingNode,
    /// One op lists the same operand more than once.
    DuplicateEdge,
    /// A forward value contains NaN or ±Inf.
    NonFinite,
    /// The graph structure itself is broken (forward reference, bad root).
    MalformedGraph,
}

impl Rule {
    /// Stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ShapeMismatch => "shape-mismatch",
            Rule::UnreachableParam => "unreachable-param",
            Rule::DanglingNode => "dangling-node",
            Rule::DuplicateEdge => "duplicate-edge",
            Rule::NonFinite => "non-finite",
            Rule::MalformedGraph => "malformed-graph",
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

/// Value-free structural description of one tape op, sufficient for shape
/// inference. Operand node ids live in [`NodeSpec::inputs`], ordered as the
/// op consumes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Constant or parameter leaf.
    Leaf,
    /// `a · b` — inputs `[a, b]`.
    MatMul,
    /// `a · bᵀ` — inputs `[a, b]`.
    MatMulTransB,
    /// Constant sparse operator of the given shape times input `[x]`.
    SpMM { op_rows: usize, op_cols: usize },
    /// Elementwise `a + b`.
    Add,
    /// Elementwise `a - b`.
    Sub,
    /// Elementwise `a ⊙ b`.
    Mul,
    /// Broadcast `1 × cols` bias over rows — inputs `[x, bias]`.
    AddBias,
    /// Constant scalar multiple of `[x]`.
    Scale,
    /// `w[0, idx] * x` — inputs `[x, w]`.
    ScalarScale { idx: usize },
    /// `diag(w[:, col]) · x` — inputs `[x, w]`.
    ColScale { col: usize },
    /// Elementwise activation of `[x]` (ReLU, sigmoid, tanh, …).
    Activation,
    /// Inverted dropout by a fixed mask of `mask_len` entries.
    Dropout { mask_len: usize },
    /// Horizontal concatenation of all inputs.
    ConcatCols,
    /// Columns `[start, end)` of `[x]`.
    SliceCols { start: usize, end: usize },
    /// `len` of the `n` rows of `[x]`.
    GatherRows { n: usize, len: usize },
    /// Per-row softmax of `[x]`.
    RowSoftmax,
    /// Mean over all entries of `[x]` — output is `1 × 1`.
    MeanAll,
    /// GAT aggregation over an `n × n` adjacency — inputs
    /// `[src_scores, dst_scores, h]`.
    GatAttention { n: usize },
    /// Masked softmax cross-entropy over input `[logits]` — output `1 × 1`.
    MaskedCrossEntropy { n_labels: usize, mask_len: usize, mask_max: usize },
}

/// One node of a [`GraphSpec`].
#[derive(Debug, Clone)]
pub struct NodeSpec {
    pub op: OpKind,
    /// Operand node ids, in op order.
    pub inputs: Vec<NodeId>,
    /// Recorded output shape `(rows, cols)`.
    pub shape: (usize, usize),
    /// Set when this is a parameter leaf.
    pub param: Option<ParamId>,
}

/// A value-free export of a tape's op graph, in recording order (which is a
/// topological order on a well-formed tape).
#[derive(Debug, Clone, Default)]
pub struct GraphSpec {
    pub nodes: Vec<NodeSpec>,
}

/// Static analyser for tape graphs. See the module docs for the rule set.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeVerifier {
    check_values: bool,
}

impl TapeVerifier {
    /// Structural verification only (shape inference, gradient flow,
    /// dangling nodes, duplicate edges).
    pub fn new() -> Self {
        Self::default()
    }

    /// Additionally scan every forward value for NaN/±Inf when verifying a
    /// live tape.
    pub fn with_value_check(mut self) -> Self {
        self.check_values = true;
        self
    }

    /// Verifies a live tape whose loss (or output) node is `root`.
    pub fn verify(&self, tape: &crate::Tape, root: NodeId) -> Vec<Diagnostic> {
        let mut diags = self.verify_spec(&tape.export_spec(), root);
        if self.check_values {
            for id in 0..tape.len() {
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
        }
        diags
    }

    /// Verifies an exported (or hand-built) graph description against the
    /// structural rules. `root` is the node gradients would flow back from.
    pub fn verify_spec(&self, spec: &GraphSpec, root: NodeId) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let n = spec.nodes.len();
        if root >= n {
            diags.push(Diagnostic {
                op_id: root,
                severity: Severity::Error,
                rule: Rule::MalformedGraph,
                message: format!("root {root} out of range (graph has {n} nodes)"),
            });
            return diags;
        }

        // Pass 1: local structure — operand ordering, duplicate edges,
        // shape inference.
        for (id, node) in spec.nodes.iter().enumerate() {
            let mut ordered = true;
            for &input in &node.inputs {
                if input >= id {
                    ordered = false;
                    diags.push(Diagnostic {
                        op_id: id,
                        severity: Severity::Error,
                        rule: Rule::MalformedGraph,
                        message: format!(
                            "operand {input} does not precede the op (creation order must be topological)"
                        ),
                    });
                }
            }
            if !ordered {
                continue; // shapes of later nodes are meaningless here
            }
            self.check_duplicates(id, node, &mut diags);
            self.check_shapes(spec, id, node, &mut diags);
        }

        // Pass 2: gradient flow — ancestors of the root.
        let mut reachable = vec![false; n];
        reachable[root] = true;
        for id in (0..=root).rev() {
            if reachable[id] {
                for &input in &spec.nodes[id].inputs {
                    if input < n {
                        reachable[input] = true;
                    }
                }
            }
        }
        for (id, node) in spec.nodes.iter().enumerate() {
            if let Some(pid) = node.param {
                if !reachable[id] {
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

        // Pass 3: dangling nodes — anything (except the root) no op consumes.
        let mut consumed = vec![false; n];
        for node in &spec.nodes {
            for &input in &node.inputs {
                if input < n {
                    consumed[input] = true;
                }
            }
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

        diags
    }

    fn check_duplicates(&self, id: NodeId, node: &NodeSpec, diags: &mut Vec<Diagnostic>) {
        let mut seen = node.inputs.clone();
        seen.sort_unstable();
        let has_dup = seen.windows(2).any(|w| w[0] == w[1]);
        if !has_dup {
            return;
        }
        // sub(x, x) is constantly zero — almost certainly a bug. Other
        // repeats (x ⊙ x, concat of the same block) are plausible idioms.
        let severity = if node.op == OpKind::Sub { Severity::Warning } else { Severity::Info };
        let detail = if node.op == OpKind::Sub {
            "sub(x, x) is constantly zero"
        } else {
            "the same operand is wired in more than once"
        };
        diags.push(Diagnostic {
            op_id: id,
            severity,
            rule: Rule::DuplicateEdge,
            message: detail.into(),
        });
    }

    fn check_shapes(
        &self,
        spec: &GraphSpec,
        id: NodeId,
        node: &NodeSpec,
        diags: &mut Vec<Diagnostic>,
    ) {
        let shape_of = |i: NodeId| spec.nodes[i].shape;
        let mut fail = |msg: String| {
            diags.push(Diagnostic {
                op_id: id,
                severity: Severity::Error,
                rule: Rule::ShapeMismatch,
                message: msg,
            });
        };
        let ins = &node.inputs;
        let arity = |want: usize| ins.len() == want;

        // Infer the output shape; `None` means the operands themselves are
        // already incompatible (reported inside the match).
        let inferred: Option<(usize, usize)> = match &node.op {
            OpKind::Leaf => {
                if !ins.is_empty() {
                    fail(format!("leaf must have no operands, has {}", ins.len()));
                }
                Some(node.shape)
            }
            OpKind::MatMul => {
                if !arity(2) {
                    fail(format!("matmul needs 2 operands, has {}", ins.len()));
                    return;
                }
                let (a, b) = (shape_of(ins[0]), shape_of(ins[1]));
                if a.1 != b.0 {
                    fail(format!(
                        "matmul inner dimensions differ: {} × {} by {} × {}",
                        a.0, a.1, b.0, b.1
                    ));
                    None
                } else {
                    Some((a.0, b.1))
                }
            }
            OpKind::MatMulTransB => {
                if !arity(2) {
                    fail(format!("matmul_transb needs 2 operands, has {}", ins.len()));
                    return;
                }
                let (a, b) = (shape_of(ins[0]), shape_of(ins[1]));
                if a.1 != b.1 {
                    fail(format!(
                        "matmul_transb column counts differ: {} × {} by ({} × {})ᵀ",
                        a.0, a.1, b.0, b.1
                    ));
                    None
                } else {
                    Some((a.0, b.0))
                }
            }
            OpKind::SpMM { op_rows, op_cols } => {
                if !arity(1) {
                    fail(format!("spmm needs 1 dense operand, has {}", ins.len()));
                    return;
                }
                let x = shape_of(ins[0]);
                if *op_cols != x.0 {
                    fail(format!("spmm operator is {op_rows} × {op_cols} but x has {} rows", x.0));
                    None
                } else {
                    Some((*op_rows, x.1))
                }
            }
            OpKind::Add | OpKind::Sub | OpKind::Mul => {
                if !arity(2) {
                    fail(format!("elementwise op needs 2 operands, has {}", ins.len()));
                    return;
                }
                let (a, b) = (shape_of(ins[0]), shape_of(ins[1]));
                if a != b {
                    fail(format!(
                        "elementwise operands differ: {} × {} vs {} × {}",
                        a.0, a.1, b.0, b.1
                    ));
                    None
                } else {
                    Some(a)
                }
            }
            OpKind::AddBias => {
                if !arity(2) {
                    fail(format!("add_bias needs [x, bias], has {}", ins.len()));
                    return;
                }
                let (x, b) = (shape_of(ins[0]), shape_of(ins[1]));
                if b.0 != 1 || b.1 != x.1 {
                    fail(format!(
                        "bias must be 1 × {} to broadcast over {} × {}, got {} × {}",
                        x.1, x.0, x.1, b.0, b.1
                    ));
                    None
                } else {
                    Some(x)
                }
            }
            OpKind::Scale | OpKind::Activation | OpKind::RowSoftmax => {
                if !arity(1) {
                    fail(format!("unary op needs 1 operand, has {}", ins.len()));
                    return;
                }
                Some(shape_of(ins[0]))
            }
            OpKind::ScalarScale { idx } => {
                if !arity(2) {
                    fail(format!("scalar_scale needs [x, w], has {}", ins.len()));
                    return;
                }
                let (x, w) = (shape_of(ins[0]), shape_of(ins[1]));
                if w.0 != 1 {
                    fail(format!("scalar_scale weight must be 1 × k, got {} × {}", w.0, w.1));
                    None
                } else if *idx >= w.1 {
                    fail(format!("scalar_scale index {idx} out of range for 1 × {}", w.1));
                    None
                } else {
                    Some(x)
                }
            }
            OpKind::ColScale { col } => {
                if !arity(2) {
                    fail(format!("col_scale needs [x, w], has {}", ins.len()));
                    return;
                }
                let (x, w) = (shape_of(ins[0]), shape_of(ins[1]));
                if w.0 != x.0 {
                    fail(format!("col_scale weight rows ({}) must match x rows ({})", w.0, x.0));
                    None
                } else if *col >= w.1 {
                    fail(format!("col_scale column {col} out of range for {} × {}", w.0, w.1));
                    None
                } else {
                    Some(x)
                }
            }
            OpKind::Dropout { mask_len } => {
                if !arity(1) {
                    fail(format!("dropout needs 1 operand, has {}", ins.len()));
                    return;
                }
                let x = shape_of(ins[0]);
                if *mask_len != x.0 * x.1 {
                    fail(format!(
                        "dropout mask has {mask_len} entries for a {} × {} input",
                        x.0, x.1
                    ));
                    None
                } else {
                    Some(x)
                }
            }
            OpKind::ConcatCols => {
                if ins.is_empty() {
                    fail("concat_cols needs at least one operand".into());
                    return;
                }
                let rows = shape_of(ins[0]).0;
                let mut cols = 0;
                let mut ok = true;
                for &p in ins {
                    let s = shape_of(p);
                    if s.0 != rows {
                        fail(format!("concat_cols operands disagree on rows: {} vs {}", rows, s.0));
                        ok = false;
                        break;
                    }
                    cols += s.1;
                }
                ok.then_some((rows, cols))
            }
            OpKind::SliceCols { start, end } => {
                if !arity(1) {
                    fail(format!("slice_cols needs 1 operand, has {}", ins.len()));
                    return;
                }
                let x = shape_of(ins[0]);
                if start >= end || *end > x.1 {
                    fail(format!("slice [{start}, {end}) invalid for {} columns", x.1));
                    None
                } else {
                    Some((x.0, end - start))
                }
            }
            OpKind::GatherRows { n, len } => {
                if !arity(1) {
                    fail(format!("gather_rows needs 1 operand, has {}", ins.len()));
                    return;
                }
                let x = shape_of(ins[0]);
                if x.0 != *n {
                    fail(format!("gather_rows selects from {n} rows but x has {}", x.0));
                    None
                } else {
                    Some((*len, x.1))
                }
            }
            OpKind::MeanAll => {
                if !arity(1) {
                    fail(format!("mean_all needs 1 operand, has {}", ins.len()));
                    return;
                }
                Some((1, 1))
            }
            OpKind::GatAttention { n } => {
                if !arity(3) {
                    fail(format!(
                        "gat_attention needs [src_scores, dst_scores, h], has {}",
                        ins.len()
                    ));
                    return;
                }
                let (s, d, h) = (shape_of(ins[0]), shape_of(ins[1]), shape_of(ins[2]));
                let mut ok = true;
                if s != (*n, 1) {
                    fail(format!("src_scores must be {n} × 1, got {} × {}", s.0, s.1));
                    ok = false;
                }
                if d != (*n, 1) {
                    fail(format!("dst_scores must be {n} × 1, got {} × {}", d.0, d.1));
                    ok = false;
                }
                if h.0 != *n {
                    fail(format!("h must have {n} rows, got {}", h.0));
                    ok = false;
                }
                ok.then_some((*n, h.1))
            }
            OpKind::MaskedCrossEntropy { n_labels, mask_len, mask_max } => {
                if !arity(1) {
                    fail(format!("cross-entropy needs [logits], has {}", ins.len()));
                    return;
                }
                let l = shape_of(ins[0]);
                let mut ok = true;
                if *n_labels != l.0 {
                    fail(format!("{n_labels} labels for {} logit rows", l.0));
                    ok = false;
                }
                if *mask_len == 0 {
                    fail("cross-entropy mask is empty".into());
                    ok = false;
                }
                if *mask_len > 0 && *mask_max >= l.0 {
                    fail(format!("mask refers to row {mask_max} but logits have {} rows", l.0));
                    ok = false;
                }
                ok.then_some((1, 1))
            }
        };

        if let Some(want) = inferred {
            if want != node.shape {
                fail(format!(
                    "recorded shape {} × {} but shape inference gives {} × {}",
                    node.shape.0, node.shape.1, want.0, want.1
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;
    use crate::optim::ParamBank;
    use crate::Tape;

    fn leaf(rows: usize, cols: usize) -> NodeSpec {
        NodeSpec { op: OpKind::Leaf, inputs: vec![], shape: (rows, cols), param: None }
    }

    fn param_leaf(rows: usize, cols: usize, bank: &mut ParamBank) -> NodeSpec {
        let pid = bank.add(DenseMatrix::zeros(rows, cols));
        NodeSpec { op: OpKind::Leaf, inputs: vec![], shape: (rows, cols), param: Some(pid) }
    }

    fn only_rule(diags: &[Diagnostic], rule: Rule) -> &Diagnostic {
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
        assert_eq!(hits.len(), 1, "expected exactly one {rule:?}, got: {}", render(diags));
        hits[0]
    }

    #[test]
    fn detects_shape_mismatched_matmul() {
        // (2 × 3) · (4 × 5): the tape API would assert; the spec records it.
        let spec = GraphSpec {
            nodes: vec![
                leaf(2, 3),
                leaf(4, 5),
                NodeSpec { op: OpKind::MatMul, inputs: vec![0, 1], shape: (2, 5), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        let d = only_rule(&diags, Rule::ShapeMismatch);
        assert_eq!(d.op_id, 2);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("inner dimensions"), "{}", d.message);
        assert!(has_errors(&diags));
    }

    #[test]
    fn detects_recorded_shape_disagreeing_with_inference() {
        let spec = GraphSpec {
            nodes: vec![
                leaf(2, 3),
                leaf(3, 5),
                // Valid operands, but the recorded output shape lies.
                NodeSpec { op: OpKind::MatMul, inputs: vec![0, 1], shape: (5, 2), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        let d = only_rule(&diags, Rule::ShapeMismatch);
        assert_eq!(d.op_id, 2);
        assert!(d.message.contains("shape inference gives 2 × 5"), "{}", d.message);
    }

    #[test]
    fn detects_unreachable_parameter() {
        let mut bank = ParamBank::new();
        let spec = GraphSpec {
            nodes: vec![
                leaf(1, 1),
                param_leaf(1, 1, &mut bank), // never consumed by the root chain
                NodeSpec { op: OpKind::MeanAll, inputs: vec![0], shape: (1, 1), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        let d = only_rule(&diags, Rule::UnreachableParam);
        assert_eq!(d.op_id, 1);
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("identically zero"), "{}", d.message);
        // The same node is also dangling; both findings must appear.
        assert_eq!(only_rule(&diags, Rule::DanglingNode).op_id, 1);
        assert!(!has_errors(&diags), "reachability findings are warnings");
    }

    #[test]
    fn detects_dangling_node() {
        let spec = GraphSpec {
            nodes: vec![
                leaf(2, 2),
                NodeSpec { op: OpKind::Activation, inputs: vec![0], shape: (2, 2), param: None },
                // Node 1 is consumed by nothing; the root chain is 0 → 2.
                NodeSpec { op: OpKind::MeanAll, inputs: vec![0], shape: (1, 1), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        let d = only_rule(&diags, Rule::DanglingNode);
        assert_eq!(d.op_id, 1);
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn detects_duplicate_edge_in_sub() {
        let spec = GraphSpec {
            nodes: vec![
                leaf(2, 2),
                NodeSpec { op: OpKind::Sub, inputs: vec![0, 0], shape: (2, 2), param: None },
                NodeSpec { op: OpKind::MeanAll, inputs: vec![1], shape: (1, 1), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        let d = only_rule(&diags, Rule::DuplicateEdge);
        assert_eq!(d.op_id, 1);
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("constantly zero"), "{}", d.message);
    }

    #[test]
    fn duplicate_edge_elsewhere_is_only_informational() {
        let spec = GraphSpec {
            nodes: vec![
                leaf(2, 2),
                NodeSpec { op: OpKind::Mul, inputs: vec![0, 0], shape: (2, 2), param: None },
                NodeSpec { op: OpKind::MeanAll, inputs: vec![1], shape: (1, 1), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        assert_eq!(only_rule(&diags, Rule::DuplicateEdge).severity, Severity::Info);
    }

    #[test]
    fn detects_gather_from_the_wrong_row_count() {
        let spec = GraphSpec {
            nodes: vec![
                leaf(4, 3),
                NodeSpec {
                    op: OpKind::GatherRows { n: 5, len: 2 },
                    inputs: vec![0],
                    shape: (2, 3),
                    param: None,
                },
                NodeSpec { op: OpKind::MeanAll, inputs: vec![1], shape: (1, 1), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        let d = only_rule(&diags, Rule::ShapeMismatch);
        assert_eq!(d.op_id, 1);
        assert!(d.message.contains("selects from 5 rows but x has 4"), "{}", d.message);
    }

    #[test]
    fn detects_forward_reference_and_bad_root() {
        let spec = GraphSpec {
            nodes: vec![NodeSpec {
                op: OpKind::Activation,
                inputs: vec![1], // refers to a node recorded after itself
                shape: (2, 2),
                param: None,
            }],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 0);
        assert_eq!(only_rule(&diags, Rule::MalformedGraph).op_id, 0);

        let diags = TapeVerifier::new().verify_spec(&GraphSpec::default(), 3);
        assert_eq!(only_rule(&diags, Rule::MalformedGraph).rule, Rule::MalformedGraph);
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
        let diags = TapeVerifier::new().with_value_check().verify(&tape, loss);
        assert!(diags.is_empty(), "{}", render(&diags));
    }

    #[test]
    fn live_tape_with_unused_param_is_flagged() {
        let mut bank = ParamBank::new();
        let used = bank.add(DenseMatrix::ones(3, 2));
        let orphan = bank.add(DenseMatrix::ones(2, 2));
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::ones(4, 3));
        let wn = tape.param(&bank, used);
        let _orphan_node = tape.param(&bank, orphan);
        let y = tape.matmul(x, wn);
        let loss = tape.mean_all(y);
        let diags = TapeVerifier::new().verify(&tape, loss);
        assert_eq!(only_rule(&diags, Rule::UnreachableParam).op_id, 2);
        assert_eq!(only_rule(&diags, Rule::DanglingNode).op_id, 2);
    }

    #[test]
    fn value_check_reports_non_finite_entries() {
        let mut tape = Tape::new();
        let x = tape.constant(DenseMatrix::from_vec(1, 2, vec![f32::NAN, 1.0]));
        let loss = tape.mean_all(x);
        let diags = TapeVerifier::new().with_value_check().verify(&tape, loss);
        // NaN propagates through the mean: both nodes are flagged.
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == Rule::NonFinite).collect();
        assert_eq!(hits.len(), 2, "{}", render(&diags));
        assert!(has_errors(&diags));
        // Structural-only verification stays quiet.
        assert!(TapeVerifier::new().verify(&tape, loss).is_empty());
    }

    #[test]
    fn diagnostics_render_with_rule_names() {
        let spec = GraphSpec {
            nodes: vec![
                leaf(2, 3),
                leaf(4, 5),
                NodeSpec { op: OpKind::MatMul, inputs: vec![0, 1], shape: (2, 5), param: None },
            ],
        };
        let diags = TapeVerifier::new().verify_spec(&spec, 2);
        let text = render(&diags);
        assert!(text.contains("[error] node 2: shape-mismatch"), "{text}");
    }
}
