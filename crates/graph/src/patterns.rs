//! Directed-pattern (DP) operators (Sec. III-C and IV-B).
//!
//! A directed pattern is a word over the alphabet `{A, Aᵀ}` — e.g. the four
//! 2-order patterns `A·A`, `Aᵀ·Aᵀ`, `A·Aᵀ`, `Aᵀ·A` the paper leans on:
//!
//! * `A·Aᵀ` connects nodes that share an **out**-target ("co-citing"),
//! * `Aᵀ·A` connects nodes that share an **in**-source ("co-cited"),
//!   both of which tend to carry homophily,
//! * `A·A` / `Aᵀ·Aᵀ` follow two hops in a consistent direction, which is
//!   where structured heterophily shows up (Fig. 3).
//!
//! Order-N enumeration yields `2¹ + 2² + … + 2ᴺ` operators, matching the
//! paper's `k` accounting (k=2 at order 1, k=6 at order 2).
//!
//! Each operator has one owner. [`DirectedPattern::materialize_all`] returns
//! the boolean matrices by value; a [`PatternSet`] takes them as `Arc`
//! handles and adds one normalised propagator per operator, so sets built
//! from the same materialisation (one per `conv_r`, or one per DP
//! selection) share every matrix instead of copying it.

use crate::csr::CsrMatrix;
use crate::{GraphError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// One hop direction in a directed-pattern word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Follow edges forward: multiply by `A`.
    Fwd,
    /// Follow edges backward: multiply by `Aᵀ`.
    Rev,
}

/// A directed pattern: a non-empty word over `{A, Aᵀ}` that instantiates to
/// the boolean product of the corresponding matrices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DirectedPattern(Vec<Dir>);

impl DirectedPattern {
    /// Creates a pattern from a hop word.
    ///
    /// # Panics
    /// Panics on an empty word — a zero-length pattern is the identity and
    /// is always represented separately (the initial residual `X⁽⁰⁾`).
    pub fn new(word: Vec<Dir>) -> Self {
        assert!(!word.is_empty(), "directed pattern must have at least one hop");
        Self(word)
    }

    /// 1-hop out pattern `A`.
    pub fn out() -> Self {
        Self(vec![Dir::Fwd])
    }

    /// 1-hop in pattern `Aᵀ`.
    pub fn in_() -> Self {
        Self(vec![Dir::Rev])
    }

    /// The order (word length) of the pattern.
    pub fn order(&self) -> usize {
        self.0.len()
    }

    /// The hop word.
    pub fn word(&self) -> &[Dir] {
        &self.0
    }

    /// Human-readable name, e.g. `"A·Aᵀ"`.
    pub fn name(&self) -> String {
        self.0
            .iter()
            .map(|d| match d {
                Dir::Fwd => "A",
                Dir::Rev => "Aᵀ",
            })
            .collect::<Vec<_>>()
            .join("·")
    }

    /// All patterns of order exactly `order` (2^order words), in
    /// lexicographic order with `Fwd < Rev`.
    pub fn enumerate_order(order: usize) -> Vec<Self> {
        assert!(order >= 1, "order must be >= 1");
        assert!(order <= 16, "order-{order} enumeration would be astronomically large");
        (0..(1usize << order))
            .map(|bits| {
                Self(
                    (0..order)
                        .map(|i| if bits >> (order - 1 - i) & 1 == 0 { Dir::Fwd } else { Dir::Rev })
                        .collect(),
                )
            })
            .collect()
    }

    /// All patterns of order `1..=max_order` — the paper's
    /// `k = 2¹ + … + 2ᴺ` operator family (Sec. IV-B).
    pub fn enumerate_up_to(max_order: usize) -> Vec<Self> {
        (1..=max_order).flat_map(Self::enumerate_order).collect()
    }

    /// The four canonical 2-order patterns AMUD scores:
    /// `[A·A, A·Aᵀ, Aᵀ·A, Aᵀ·Aᵀ]`.
    pub fn two_order() -> Vec<Self> {
        Self::enumerate_order(2)
    }

    /// Materialises the pattern as a boolean reachability matrix over the
    /// directed adjacency `a`, with the diagonal removed (a node is not its
    /// own pattern-neighbour).
    pub fn materialize(&self, a: &CsrMatrix) -> Result<CsrMatrix> {
        let at = a.transpose();
        let mut acc = match self.0[0] {
            Dir::Fwd => a.clone(),
            Dir::Rev => at.clone(),
        };
        for d in &self.0[1..] {
            let rhs = match d {
                Dir::Fwd => a,
                Dir::Rev => &at,
            };
            acc = acc.bool_matmul(rhs)?;
        }
        Ok(acc.without_diagonal())
    }

    /// Materialises every pattern in `patterns` over `a` with shared work:
    /// `Aᵀ` is built once, and the raw (pre-diagonal-removal) product for
    /// every word prefix is memoised, so each distinct product — `A·A`,
    /// `A·Aᵀ`, `Aᵀ·A`, `Aᵀ·Aᵀ`, … — is computed exactly once per graph even
    /// when it appears as a prefix of several longer patterns. Each result
    /// is bitwise identical to [`DirectedPattern::materialize`], which
    /// performs the same products in the same order.
    pub fn materialize_all(a: &CsrMatrix, patterns: &[Self]) -> Result<Vec<CsrMatrix>> {
        let at = a.transpose();
        // Memo over word *prefixes* of the raw accumulated products; the
        // diagonal is removed only on the final per-pattern result, exactly
        // as in `materialize`.
        let mut memo: HashMap<Vec<Dir>, CsrMatrix> = HashMap::new();
        let mut out = Vec::with_capacity(patterns.len());
        for p in patterns {
            for end in 1..=p.0.len() {
                let prefix = &p.0[..end];
                if memo.contains_key(prefix) {
                    continue;
                }
                let product = if end == 1 {
                    match prefix[0] {
                        Dir::Fwd => a.clone(),
                        Dir::Rev => at.clone(),
                    }
                } else {
                    let rhs = match prefix[end - 1] {
                        Dir::Fwd => a,
                        Dir::Rev => &at,
                    };
                    memo[&prefix[..end - 1]].bool_matmul(rhs)?
                };
                memo.insert(prefix.to_vec(), product);
            }
            out.push(memo[&p.0].without_diagonal());
        }
        Ok(out)
    }
}

impl std::fmt::Display for DirectedPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Rejects convolution coefficients outside the paper's `r ∈ [0, 1]` range
/// (NaN included) with a typed error, so one bad grid point degrades to a
/// recorded failure instead of aborting a sweep.
fn validate_conv_r(conv_r: f32) -> Result<()> {
    if (0.0..=1.0).contains(&conv_r) {
        Ok(())
    } else {
        Err(GraphError::BadCoefficient {
            detail: format!("convolution coefficient must be in [0, 1], got {conv_r}"),
        })
    }
}

/// A set of materialised DP operators plus their normalised propagation
/// versions — what ADPA precomputes once per graph (Sec. IV-B).
///
/// The set holds its matrices by `Arc`: operators shared with whoever
/// materialised them (in `amud-core`, the precompute store's RAW entry for
/// the graph), and propagators shared with every set selected from it, so
/// building, selecting and caching a set copy no matrix.
#[derive(Debug, Clone)]
pub struct PatternSet {
    patterns: Vec<DirectedPattern>,
    /// Boolean pattern matrices (diagonal-free), parallel to `patterns`.
    operators: Vec<Arc<CsrMatrix>>,
    /// Normalised (Eq. 1) propagation operators, parallel to `patterns`.
    propagators: Vec<Arc<CsrMatrix>>,
}

impl PatternSet {
    /// Materialises every pattern in `patterns` over adjacency `a` and
    /// normalises each with the general Eq. 1 degree normalisation
    /// `D^{r-1} G D^{-r}` — the paper's tunable "convolution kernel
    /// coefficient" `r ∈ [0, 1]` (`r = 0` reverse-transition, `r = 0.5`
    /// symmetric, `r = 1` random-walk).
    pub fn build_normalized(
        a: &CsrMatrix,
        patterns: Vec<DirectedPattern>,
        conv_r: f32,
    ) -> Result<Self> {
        let operators = DirectedPattern::materialize_all(a, &patterns)?;
        Self::from_parts(patterns, operators.into_iter().map(Arc::new).collect(), conv_r)
    }

    /// Assembles a set over already-materialised boolean operators,
    /// normalising each with coefficient `conv_r`; the set shares
    /// `operators` rather than copying them. This is the re-use path of the
    /// precompute cache: one raw materialisation per graph serves every
    /// `conv_r` a sweep visits. `patterns` and `operators` must be parallel
    /// (same length, `operators[i]` materialising `patterns[i]`).
    pub fn from_parts(
        patterns: Vec<DirectedPattern>,
        operators: Vec<Arc<CsrMatrix>>,
        conv_r: f32,
    ) -> Result<Self> {
        validate_conv_r(conv_r)?;
        if patterns.len() != operators.len() {
            return Err(GraphError::DimensionMismatch {
                expected: (patterns.len(), patterns.len()),
                got: (operators.len(), operators.len()),
            });
        }
        let propagators = operators.iter().map(|op| Arc::new(op.normalized(conv_r))).collect();
        Ok(Self { patterns, operators, propagators })
    }

    /// All patterns of order `1..=max_order` over `a`, with row-stochastic
    /// propagation operators (`r = 0` in Eq. 1).
    pub fn up_to_order(a: &CsrMatrix, max_order: usize) -> Result<Self> {
        Self::build_normalized(a, DirectedPattern::enumerate_up_to(max_order), 0.0)
    }

    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    pub fn patterns(&self) -> &[DirectedPattern] {
        &self.patterns
    }

    /// The boolean pattern matrices.
    pub fn operators(&self) -> &[Arc<CsrMatrix>] {
        &self.operators
    }

    /// The normalised propagation operators.
    pub fn propagators(&self) -> &[Arc<CsrMatrix>] {
        &self.propagators
    }

    /// Keeps only the patterns at `indices` (used after AMUD-guided DP
    /// selection, Sec. IV-B). The result shares every kept matrix with
    /// `self`.
    pub fn select(&self, indices: &[usize]) -> Self {
        Self {
            patterns: indices.iter().map(|&i| self.patterns[i].clone()).collect(),
            operators: indices.iter().map(|&i| Arc::clone(&self.operators[i])).collect(),
            propagators: indices.iter().map(|&i| Arc::clone(&self.propagators[i])).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CsrMatrix {
        // Fig. 3-like toy: 1 -> 4, 5 -> 1, 2 -> 4, 5 -> 2 (0-indexed shifted)
        CsrMatrix::from_edges(6, 6, vec![(0, 3), (4, 0), (1, 3), (4, 1), (2, 3), (4, 2)]).unwrap()
    }

    #[test]
    fn enumeration_counts_match_paper() {
        assert_eq!(DirectedPattern::enumerate_order(1).len(), 2);
        assert_eq!(DirectedPattern::enumerate_order(2).len(), 4);
        assert_eq!(DirectedPattern::enumerate_up_to(1).len(), 2); // k = 2
        assert_eq!(DirectedPattern::enumerate_up_to(2).len(), 6); // k = 6
        assert_eq!(DirectedPattern::enumerate_up_to(3).len(), 14); // k = 2+4+8
    }

    #[test]
    fn names_render() {
        let ps = DirectedPattern::two_order();
        let names: Vec<String> = ps.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["A·A", "A·Aᵀ", "Aᵀ·A", "Aᵀ·Aᵀ"]);
    }

    #[test]
    fn out_in_patterns_are_transposes() {
        let a = toy();
        let fwd = DirectedPattern::out().materialize(&a).unwrap();
        let rev = DirectedPattern::in_().materialize(&a).unwrap();
        assert_eq!(fwd.transpose().to_dense(), rev.to_dense());
    }

    #[test]
    fn co_citation_pattern_captures_shared_targets() {
        // Nodes 0, 1, 2 all point at 3 → A·Aᵀ connects them pairwise.
        let a = toy();
        let aat = DirectedPattern::new(vec![Dir::Fwd, Dir::Rev]).materialize(&a).unwrap();
        assert_eq!(aat.get(0, 1), 1.0);
        assert_eq!(aat.get(1, 2), 1.0);
        assert_eq!(aat.get(0, 2), 1.0);
        assert_eq!(aat.get(0, 0), 0.0, "diagonal must be removed");
        assert_eq!(aat.get(0, 4), 0.0);
    }

    #[test]
    fn co_source_pattern_captures_shared_sources() {
        // 4 points at 0, 1, 2 → Aᵀ·A connects 0, 1, 2 pairwise.
        let a = toy();
        let ata = DirectedPattern::new(vec![Dir::Rev, Dir::Fwd]).materialize(&a).unwrap();
        assert_eq!(ata.get(0, 1), 1.0);
        assert_eq!(ata.get(1, 2), 1.0);
        assert_eq!(ata.get(0, 3), 0.0);
    }

    #[test]
    fn two_hop_forward_pattern() {
        // 4 -> 0 -> 3: A·A should connect 4 to 3.
        let a = toy();
        let aa = DirectedPattern::new(vec![Dir::Fwd, Dir::Fwd]).materialize(&a).unwrap();
        assert_eq!(aa.get(4, 3), 1.0);
        assert_eq!(aa.get(0, 3), 0.0);
    }

    #[test]
    fn symmetric_adjacency_collapses_patterns() {
        let a = toy();
        let sym = a.bool_union(&a.transpose()).unwrap();
        let pats = DirectedPattern::two_order();
        let mats: Vec<_> = pats.iter().map(|p| p.materialize(&sym).unwrap()).collect();
        // On an undirected graph, all 2-order patterns coincide.
        for m in &mats[1..] {
            assert_eq!(m.to_dense(), mats[0].to_dense());
        }
    }

    #[test]
    fn pattern_set_builds_propagators() {
        let a = toy();
        let ps = PatternSet::up_to_order(&a, 2).unwrap();
        assert_eq!(ps.len(), 6);
        for prop in ps.propagators() {
            for r in 0..prop.n_rows() {
                let s: f32 = prop.row_values(r).iter().sum();
                assert!(s.abs() < 1e-6 || (s - 1.0).abs() < 1e-5, "row sum {s}");
            }
        }
    }

    #[test]
    fn build_normalized_symmetric_coefficient() {
        let a = toy();
        let sym = PatternSet::build_normalized(&a, DirectedPattern::two_order(), 0.5).unwrap();
        // With r = 0.5 on a symmetric pattern (A·Aᵀ is symmetric), the
        // propagator is symmetric too.
        let idx = 1; // A·Aᵀ
        let prop = &sym.propagators()[idx];
        for (u, v, w) in prop.iter() {
            assert!((prop.get(v, u) - w).abs() < 1e-5);
        }
    }

    #[test]
    fn build_normalized_rejects_bad_coefficient() {
        let a = toy();
        for bad in [1.5, -0.1, f32::NAN] {
            let err = PatternSet::build_normalized(&a, DirectedPattern::two_order(), bad)
                .expect_err("coefficient outside [0, 1] must be rejected");
            assert!(
                matches!(&err, GraphError::BadCoefficient { detail }
                    if detail.contains("convolution coefficient")),
                "unexpected error: {err:?}"
            );
        }
    }

    #[test]
    fn materialize_all_matches_per_pattern_materialize() {
        let a = toy();
        let pats = DirectedPattern::enumerate_up_to(3);
        let shared = DirectedPattern::materialize_all(&a, &pats).unwrap();
        for (p, got) in pats.iter().zip(&shared) {
            let direct = p.materialize(&a).unwrap();
            assert_eq!(got, &direct, "shared-prefix result diverged for {p}");
        }
    }

    #[test]
    fn from_parts_matches_build_normalized() {
        let a = toy();
        let pats = DirectedPattern::two_order();
        let built = PatternSet::build_normalized(&a, pats.clone(), 0.5).unwrap();
        let ops = DirectedPattern::materialize_all(&a, &pats).unwrap();
        let ops = ops.into_iter().map(Arc::new).collect();
        let assembled = PatternSet::from_parts(pats, ops, 0.5).unwrap();
        assert_eq!(assembled.operators(), built.operators());
        assert_eq!(assembled.propagators(), built.propagators());
    }

    #[test]
    fn from_parts_rejects_length_mismatch() {
        let a = toy();
        let pats = DirectedPattern::two_order();
        let mut ops: Vec<_> = DirectedPattern::materialize_all(&a, &pats)
            .unwrap()
            .into_iter()
            .map(Arc::new)
            .collect();
        ops.pop();
        assert!(PatternSet::from_parts(pats, ops, 0.0).is_err());
    }

    #[test]
    fn pattern_set_select_subsets() {
        let a = toy();
        let ps = PatternSet::up_to_order(&a, 2).unwrap();
        let sub = ps.select(&[0, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.patterns()[0], ps.patterns()[0]);
        assert_eq!(sub.patterns()[1], ps.patterns()[3]);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_pattern_panics() {
        let _ = DirectedPattern::new(vec![]);
    }
}
