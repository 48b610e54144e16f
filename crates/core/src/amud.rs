//! AMUD: statistical guidance for directed-vs-undirected modeling
//! (Sec. III, Eq. 4–8).
//!
//! # Interpretation of the correlation
//!
//! Eq. 4–7 of the paper define a Pearson correlation `r(G_d, N)` between a
//! pairwise topology variable and node profiles. We realise it, as the
//! authors' implementation does, as the **phi coefficient** between two
//! binary variables over ordered node pairs `(u, v)`, `u ≠ v`, restricted
//! to labelled nodes:
//!
//! * `G(u, v) = 1` iff `(u, v)` is an edge of the DP operator,
//! * `Y(u, v) = 1` iff `y_u = y_v`.
//!
//! For binary variables Pearson's r has the closed form
//!
//! ```text
//! r = (T·n₁₁ − n_G·n_Y) / sqrt(n_G (T − n_G) · n_Y (T − n_Y))
//! ```
//!
//! with `T` the number of ordered labelled pairs, `n_G` the operator's edge
//! count among them, `n_Y` the number of same-label pairs, and `n₁₁` the
//! overlap — all computable in `O(nnz(G))` without materialising `n²`
//! pairs.
//!
//! # Guidance score
//!
//! Eq. 8 aggregates the disparities between the four 2-order DP
//! coefficients of determination. We implement it as the max-normalised
//! root-mean-square pairwise disparity
//!
//! ```text
//! S = (1 / max_i R²_i) · sqrt( mean_{i<j} (R²_i − R²_j)² )
//! ```
//!
//! which is Eq. 8 with the `C(4,2)` pair-count normalisation moved inside
//! the square root (the printed formula is ambiguous on this point; this
//! placement makes `S` scale-free and lands the benchmark datasets on the
//! paper's side of the θ = 0.5 threshold). `S = 0` exactly when all four
//! patterns correlate identically with the labels — which is forced when
//! the graph is symmetric — and `S` grows as orientation separates
//! homophilous from heterophilous 2-hop contexts.
//!
//! # Cost
//!
//! AMUD pays for the four 2-hop products (a boolean SpGEMM and a diagonal
//! strip each), one `O(nnz)` label pass per operator, and the feature
//! pass. Each SpGEMM (`CsrMatrix::bool_matmul`) costs one word OR per
//! middle node and 64-column run of its row, plus a walk over each output
//! row's touched words, and sorts nothing; on heterophilous wiki graphs,
//! where a 2-hop product holds most ordered pairs, that is close to the
//! cost of writing the output. The products are built once per graph:
//! [`amud_score_profiles`] takes them from the precompute RAW store when
//! it holds the adjacency's order-2 family and otherwise materialises
//! that family with shared prefixes, and `prepare_topology` hands it on
//! to ADPA on Paradigm II.
//! The feature pass costs one f64 dot of length `f` per distinct ordered
//! neighbour pair across the four operators, which share most of their
//! pairs, plus one per sampled pair, drawn once for all operators.

use crate::precompute::TwoHopFamily;
use amud_graph::patterns::DirectedPattern;
use amud_graph::CsrMatrix;
use amud_nn::DenseMatrix;
use rand::Rng;
use rand::SeedableRng;

/// AMUD's modeling recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmudDecision {
    /// `S ≤ θ`: apply the coarse undirected transformation (Paradigm I).
    Undirected,
    /// `S > θ`: retain directed edges (Paradigm II).
    Directed,
}

/// Correlation of one DP operator with the node labels.
#[derive(Debug, Clone)]
pub struct PatternCorrelation {
    /// The 2-order directed pattern this row scores.
    pub pattern: DirectedPattern,
    /// Phi coefficient `r(G_d, N)` (Eq. 7).
    pub r: f64,
    /// Coefficient of determination `R² = r²`.
    pub r_squared: f64,
    /// Number of operator edges among labelled pairs (the sample size the
    /// phi coefficient was estimated from).
    pub support: f64,
    /// Profile-combined coefficient of determination: the support-weighted
    /// blend of the label-R² and (when features are supplied) feature-R².
    /// This is the value the guidance score compares across patterns.
    pub r_squared_combined: f64,
    /// The pattern's sampling-noise floor `λ / effective support` — the R²
    /// magnitude a finite sample produces under label-independent wiring
    /// (`support · R²` is ~χ²(1) under the null, and graph-generation
    /// variance is of the same order). The guidance score's normaliser
    /// absorbs it so pure noise can never trip the θ threshold.
    pub noise_floor: f64,
}

/// The full AMUD report for a digraph.
#[derive(Debug, Clone)]
pub struct AmudReport {
    /// One correlation row per 2-order directed pattern.
    pub correlations: Vec<PatternCorrelation>,
    /// Guidance score `S` (Eq. 8).
    pub score: f64,
    /// The modeling recommendation: directed iff `S > θ`.
    pub decision: AmudDecision,
    /// Threshold used (`θ = 0.5` per the paper).
    pub theta: f64,
}

/// The paper's decision threshold.
pub const THETA: f64 = 0.5;

/// Debiasing strictness: a pattern's R² must exceed `LAMBDA / support`
/// before any of it counts toward the guidance score. Under the null
/// hypothesis `support · R²` is ~χ²(1) *and* the graph-generation process
/// itself contributes comparable variance, so the χ² mean (λ = 1) is too
/// permissive — λ = 2 sits at roughly the one-sided 84th percentile,
/// zeroing pure-noise patterns while preserving genuinely oriented ones.
pub const LAMBDA: f64 = 2.0;

/// Phi coefficient between a DP operator's edges and label agreement over
/// ordered pairs of labelled nodes.
///
/// `labelled` restricts the computation to a subset of nodes (the paper
/// computes DP selection "under the assumption of known labels for part of
/// nodes", Sec. IV-B); pass `None` to use every node.
pub fn pattern_label_correlation(
    operator: &CsrMatrix,
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
) -> f64 {
    pattern_label_correlation_with_support(operator, labels, n_classes, labelled).0
}

/// Like [`pattern_label_correlation`] but also returns the support (the
/// number of operator edges among labelled pairs), which calibrates the
/// sampling-noise floor of the correlation estimate.
pub fn pattern_label_correlation_with_support(
    operator: &CsrMatrix,
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
) -> (f64, f64) {
    let n = labels.len();
    assert_eq!(operator.n_rows(), n, "operator size must match labels");
    let in_set: Option<Vec<bool>> = labelled.map(|set| {
        let mut mask = vec![false; n];
        for &v in set {
            mask[v] = true;
        }
        mask
    });
    let is_in = |v: usize| in_set.as_ref().is_none_or(|m| m[v]);

    let n_labelled = match &in_set {
        Some(m) => m.iter().filter(|&&b| b).count(),
        None => n,
    };
    if n_labelled < 2 {
        return (0.0, 0.0);
    }
    let total_pairs = (n_labelled * (n_labelled - 1)) as f64;

    // Class counts among labelled nodes → same-label pair count.
    let mut class_counts = vec![0usize; n_classes];
    for (v, &y) in labels.iter().enumerate() {
        if is_in(v) {
            class_counts[y] += 1;
        }
    }
    let same_label_pairs: f64 =
        class_counts.iter().map(|&c| (c * (c.saturating_sub(1))) as f64).sum();

    // Operator edges among labelled pairs, and their same-label overlap.
    let mut n_g = 0f64;
    let mut n_11 = 0f64;
    for (u, v, _) in operator.iter() {
        if u == v || !is_in(u) || !is_in(v) {
            continue;
        }
        n_g += 1.0;
        if labels[u] == labels[v] {
            n_11 += 1.0;
        }
    }

    let denom_sq = n_g * (total_pairs - n_g) * same_label_pairs * (total_pairs - same_label_pairs);
    if denom_sq <= 0.0 {
        return (0.0, n_g);
    }
    ((total_pairs * n_11 - n_g * same_label_pairs) / denom_sq.sqrt(), n_g)
}

/// Phi-style correlations between each DP operator's edges and *feature*
/// similarity over node pairs (the paper's `N` covers "features or
/// labels", Eq. 4). Returns one `(r, support)` per operator, where support
/// is the operator's off-diagonal edge count.
///
/// For a binary pair variable `G` with density `p` and a continuous pair
/// variable `S` (cosine similarity of L2-normalised feature rows), Pearson
/// reduces to `r = sqrt(p/(1−p)) · (E[S|edge] − E[S]) / σ_S`. `E[S|edge]`
/// is computed exactly over each operator's edges; the unconditional
/// moments are estimated from `n_samples` seeded random pairs, so the
/// result is deterministic.
///
/// One pass serves every operator: `X` is normalised and widened to f64
/// once, the sampled moments (which do not depend on the operator) are
/// drawn once, and each row computes the dot of each distinct neighbour
/// across all operators once. Every dot is the ascending-`k` f64 sum, and
/// each operator adds its edges' dots in CSR order, so each result is the
/// one a separate pass per operator would give, bit for bit. The pass
/// stays sequential: that order of additions is what keeps the bits.
fn feature_correlations(
    operators: &[&CsrMatrix],
    features: &DenseMatrix,
    n_samples: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    let n = features.rows();
    let f = features.cols();
    for op in operators {
        assert_eq!(op.n_rows(), n, "operator size must match features");
    }
    if n < 2 {
        return vec![(0.0, 0.0); operators.len()];
    }
    let x: Vec<f64> = features.l2_normalize_rows().as_slice().iter().map(|&v| v as f64).collect();
    let row = |u: usize| &x[u * f..(u + 1) * f];

    // Exact conditional sums over each operator's edges. `stamp[v] == u`
    // marks `v` as already among row `u`'s distinct neighbours, whose dot
    // is `dots[slot[v]]`.
    let mut n_g = vec![0f64; operators.len()];
    let mut sum_edge = vec![0f64; operators.len()];
    let mut stamp = vec![usize::MAX; n];
    let mut slot = vec![0usize; n];
    let mut neighbours: Vec<usize> = Vec::new();
    let mut dots: Vec<f64> = Vec::new();
    for u in 0..n {
        neighbours.clear();
        for op in operators {
            for &v in op.row_cols(u) {
                let v = v as usize;
                if v != u && stamp[v] != u {
                    stamp[v] = u;
                    slot[v] = neighbours.len();
                    neighbours.push(v);
                }
            }
        }
        let xu = row(u);
        dots.clear();
        let mut quads = neighbours.chunks_exact(4);
        for q in quads.by_ref() {
            dots.extend(dot4(xu, [row(q[0]), row(q[1]), row(q[2]), row(q[3])]));
        }
        dots.extend(quads.remainder().iter().map(|&v| dot(xu, row(v))));
        for (g, op) in operators.iter().enumerate() {
            for &v in op.row_cols(u) {
                let v = v as usize;
                if v != u {
                    n_g[g] += 1.0;
                    sum_edge[g] += dots[slot[v]];
                }
            }
        }
    }

    // Sampled unconditional moments.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut sum = 0f64;
    let mut sum_sq = 0f64;
    let mut taken = 0usize;
    while taken < n_samples {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let s = dot(row(u), row(v));
        sum += s;
        sum_sq += s * s;
        taken += 1;
    }
    let mean_all = sum / taken as f64;
    let var_all = (sum_sq / taken as f64 - mean_all * mean_all).max(1e-12);
    let total_pairs = (n * (n - 1)) as f64;
    n_g.iter()
        .zip(&sum_edge)
        .map(|(&n_g, &sum_edge)| {
            if n_g == 0.0 {
                return (0.0, 0.0);
            }
            let mean_edge = sum_edge / n_g;
            let p = (n_g / total_pairs).clamp(1e-12, 1.0 - 1e-12);
            let r = (p / (1.0 - p)).sqrt() * (mean_edge - mean_all) / var_all.sqrt();
            (r.clamp(-1.0, 1.0), n_g)
        })
        .collect()
}

/// `Σ_k a[k]·b[k]` in ascending `k`, from `-0.0` as `Iterator::sum` starts.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&a, &b)| a * b).sum()
}

/// Four [`dot`]s against `a` at once, each in its own accumulator (so each
/// is the same ascending-`k` sum), which keeps four additions in flight.
fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let mut acc = [-0.0f64; 4];
    for ((((&a, &b0), &b1), &b2), &b3) in a.iter().zip(b[0]).zip(b[1]).zip(b[2]).zip(b[3]) {
        acc[0] += a * b0;
        acc[1] += a * b1;
        acc[2] += a * b2;
        acc[3] += a * b3;
    }
    acc
}

/// Computes the AMUD report for a directed adjacency matrix using the four
/// 2-order DP operators (the paper's efficiency choice, Sec. III-C).
pub fn amud_score(adj: &CsrMatrix, labels: &[usize], n_classes: usize) -> AmudReport {
    amud_score_with(adj, labels, n_classes, None, THETA)
}

/// Full-control variant: label subset and threshold.
pub fn amud_score_with(
    adj: &CsrMatrix,
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
    theta: f64,
) -> AmudReport {
    amud_score_profiles(adj, labels, n_classes, labelled, None, theta)
}

/// The complete Eq. 4–8 pipeline over both kinds of node profiles: labels
/// (restricted to the `labelled` subset when given) and, when provided,
/// node features (always fully observed). Each pattern's coefficient of
/// determination is the support-weighted combination of the two debiased
/// R² estimates, which keeps the guidance stable even when few labels are
/// known — the situation the semi-supervised paradigm actually faces.
///
/// The four 2-hop operators come from the precompute store when it holds
/// this adjacency's order-2 family, and are materialised otherwise.
pub fn amud_score_profiles(
    adj: &CsrMatrix,
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
    features: Option<&DenseMatrix>,
    theta: f64,
) -> AmudReport {
    score_family(&TwoHopFamily::of(adj), labels, n_classes, labelled, features, theta)
}

/// [`amud_score_profiles`] over an already-built order-2 family.
pub(crate) fn score_family(
    family: &TwoHopFamily,
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
    features: Option<&DenseMatrix>,
    theta: f64,
) -> AmudReport {
    let (patterns, operators) = family.two_hop();
    score_operators(patterns, &operators, labels, n_classes, labelled, features, theta)
}

/// Higher-order AMUD — the extension the paper sketches in Sec. III-C
/// ("R² can be extended by considering higher-order relationships G_d"):
/// scores the full order-`order` pattern family (`2^order` operators)
/// instead of the four 2-order ones. Costs grow exponentially in `order`;
/// `order = 2` recovers [`amud_score_profiles`] exactly.
pub fn amud_score_order(
    adj: &CsrMatrix,
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
    features: Option<&DenseMatrix>,
    order: usize,
    theta: f64,
) -> AmudReport {
    debug_assert_eq!(adj.n_rows(), adj.n_cols(), "AMUD runs on a square adjacency");
    let patterns = DirectedPattern::enumerate_order(order);
    let Ok(operators) = DirectedPattern::materialize_all(adj, &patterns) else {
        // materialize_all only fails on a bool_matmul dimension mismatch,
        // impossible for a square adjacency.
        unreachable!("square adjacency materialises every pattern")
    };
    let operators: Vec<&CsrMatrix> = operators.iter().collect();
    score_operators(patterns, &operators, labels, n_classes, labelled, features, theta)
}

/// Shared Eq. 4–8 core over materialised pattern operators.
fn score_operators(
    patterns: Vec<DirectedPattern>,
    operators: &[&CsrMatrix],
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
    features: Option<&DenseMatrix>,
    theta: f64,
) -> AmudReport {
    let feature_rs = features.map(|x| feature_correlations(operators, x, 200_000, 0x5EED));
    let correlations: Vec<PatternCorrelation> = patterns
        .into_iter()
        .zip(operators)
        .enumerate()
        .map(|(i, (p, op))| {
            let (r, support) =
                pattern_label_correlation_with_support(op, labels, n_classes, labelled);
            let r_squared = r * r;
            // Support-weighted blend of the label and feature profiles:
            // labels see only labelled pairs, features all pairs, so each
            // profile's evidence is weighted by its sample size.
            let (r_squared_combined, eff_support) = match &feature_rs {
                None => (r_squared, support),
                Some(feature_rs) => {
                    let (rf, sup_f) = feature_rs[i];
                    let (w_l, w_f) = (support.max(0.0), sup_f.max(0.0));
                    if w_l + w_f > 0.0 {
                        ((w_l * r_squared + w_f * rf * rf) / (w_l + w_f), w_l + w_f)
                    } else {
                        (0.0, 0.0)
                    }
                }
            };
            let noise_floor = if eff_support > 0.0 { LAMBDA / eff_support } else { f64::MAX };
            PatternCorrelation {
                pattern: p,
                r,
                r_squared,
                support,
                r_squared_combined,
                noise_floor,
            }
        })
        .collect();
    let values: Vec<f64> = correlations.iter().map(|c| c.r_squared_combined).collect();
    let floors: Vec<f64> = correlations.iter().map(|c| c.noise_floor).collect();
    let score = guidance_score_regularized(&values, &floors);
    let decision = if score > theta { AmudDecision::Directed } else { AmudDecision::Undirected };
    AmudReport { correlations, score, decision, theta }
}

/// Noise-regularised Eq. 8: RMS pairwise disparity of the (combined) R²
/// values, normalised by the largest value *plus* the mean noise floor.
/// Differences are floor-invariant (a common bias cancels), so the floor
/// only has to keep the normaliser honest: when every pattern sits at the
/// noise level, `S ≤ RMS(noise) / (λ·floor) < θ`.
pub fn guidance_score_regularized(r_squared: &[f64], floors: &[f64]) -> f64 {
    assert_eq!(r_squared.len(), floors.len(), "one floor per pattern");
    assert!(r_squared.len() >= 2, "guidance score needs at least two patterns");
    let max = r_squared.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
    let mean_floor = floors.iter().sum::<f64>() / floors.len() as f64;
    let denom = max + mean_floor;
    if denom <= 1e-15 {
        return 0.0;
    }
    let mut sum_sq = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..r_squared.len() {
        for j in (i + 1)..r_squared.len() {
            sum_sq += (r_squared[i] - r_squared[j]).powi(2);
            pairs += 1;
        }
    }
    (sum_sq / pairs as f64).sqrt() / denom
}

/// Eq. 8 without noise regularisation: max-normalised RMS pairwise
/// disparity of the R² values (the floor-free limit of
/// [`guidance_score_regularized`]).
pub fn guidance_score(r_squared: &[f64]) -> f64 {
    assert!(r_squared.len() >= 2, "guidance score needs at least two patterns");
    let max = r_squared.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max <= 1e-12 {
        return 0.0;
    }
    let mut sum_sq = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..r_squared.len() {
        for j in (i + 1)..r_squared.len() {
            sum_sq += (r_squared[i] - r_squared[j]).powi(2);
            pairs += 1;
        }
    }
    (sum_sq / pairs as f64).sqrt() / max
}

/// Ranks DP operators of a [`amud_graph::PatternSet`] by their label
/// correlation, descending — the DP-selection rule of Sec. IV-B ("select
/// G_d with a higher value of r").
pub fn rank_patterns<'a>(
    operators: impl IntoIterator<Item = &'a CsrMatrix>,
    labels: &[usize],
    n_classes: usize,
    labelled: Option<&[usize]>,
) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = operators
        .into_iter()
        .enumerate()
        .map(|(i, op)| (i, pattern_label_correlation(op, labels, n_classes, labelled)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amud::amud_score_order;
    use amud_datasets::{replica, ReplicaScale};
    use amud_graph::DiGraph;

    /// A digraph where orientation fully determines classes: class c points
    /// at class (c+1) mod C. `A·Aᵀ` is then purely homophilous while `A·A`
    /// is purely heterophilous — maximal disparity.
    fn oriented_graph() -> DiGraph {
        use amud_datasets::{DsbmConfig, InterClassStructure};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        DsbmConfig::new(300, 2400, 3)
            .with_homophily(0.05)
            .with_direction_informativeness(1.0)
            .with_structure(InterClassStructure::Cyclic)
            .generate(&mut rng)
    }

    /// Same statistics but orientation is a coin flip.
    fn unoriented_graph() -> DiGraph {
        use amud_datasets::{DsbmConfig, InterClassStructure};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        DsbmConfig::new(300, 2400, 3)
            .with_homophily(0.05)
            .with_direction_informativeness(0.0)
            .with_structure(InterClassStructure::Uniform)
            .generate(&mut rng)
    }

    #[test]
    fn phi_is_positive_for_homophilous_operator() {
        let g = oriented_graph();
        // A·Aᵀ on a fully oriented cyclic digraph connects same-class nodes.
        let aat = DirectedPattern::two_order()[1].clone(); // A·Aᵀ
        assert_eq!(aat.name(), "A·Aᵀ");
        let op = aat.materialize(g.adjacency()).unwrap();
        let r = pattern_label_correlation(&op, g.labels().unwrap(), 3, None);
        assert!(r > 0.3, "co-citation phi should be strongly positive, got {r}");
    }

    #[test]
    fn phi_is_negative_for_heterophilous_operator() {
        let g = oriented_graph();
        let aa = DirectedPattern::two_order()[0].clone(); // A·A
        assert_eq!(aa.name(), "A·A");
        let op = aa.materialize(g.adjacency()).unwrap();
        let r = pattern_label_correlation(&op, g.labels().unwrap(), 3, None);
        assert!(r < 0.0, "two-hop forward phi should be negative, got {r}");
    }

    #[test]
    fn oriented_graph_scores_directed() {
        let g = oriented_graph();
        let report = amud_score(g.adjacency(), g.labels().unwrap(), 3);
        assert_eq!(report.decision, AmudDecision::Directed, "S = {}", report.score);
        assert!(report.score > 0.5);
    }

    #[test]
    fn unoriented_graph_scores_undirected() {
        let g = unoriented_graph();
        let report = amud_score(g.adjacency(), g.labels().unwrap(), 3);
        assert_eq!(report.decision, AmudDecision::Undirected, "S = {}", report.score);
    }

    #[test]
    fn symmetric_graph_scores_zero() {
        let g = oriented_graph().to_undirected();
        let report = amud_score(g.adjacency(), g.labels().unwrap(), 3);
        // On a symmetric adjacency all four 2-order operators coincide,
        // so every pairwise disparity vanishes.
        assert!(report.score < 1e-9, "S = {}", report.score);
        assert_eq!(report.decision, AmudDecision::Undirected);
    }

    #[test]
    fn score_invariant_to_node_relabelling() {
        let g = oriented_graph();
        let labels = g.labels().unwrap().to_vec();
        let n = g.n_nodes();
        // Apply permutation v -> (v * 7 + 3) mod n (7 coprime with 300).
        let perm: Vec<usize> = (0..n).map(|v| (v * 7 + 3) % n).collect();
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (perm[u], perm[v])).collect();
        let mut new_labels = vec![0usize; n];
        for v in 0..n {
            new_labels[perm[v]] = labels[v];
        }
        let g2 = DiGraph::from_edges(n, edges).unwrap().with_labels(new_labels, 3).unwrap();
        let s1 = amud_score(g.adjacency(), g.labels().unwrap(), 3).score;
        let s2 = amud_score(g2.adjacency(), g2.labels().unwrap(), 3).score;
        assert!((s1 - s2).abs() < 1e-9, "{s1} vs {s2}");
    }

    #[test]
    fn guidance_score_edge_cases() {
        assert_eq!(guidance_score(&[0.0, 0.0, 0.0, 0.0]), 0.0);
        assert_eq!(guidance_score(&[0.3, 0.3, 0.3, 0.3]), 0.0);
        let high = guidance_score(&[0.5, 0.5, 0.01, 0.01]);
        assert!(high > 0.5, "disparate R² should exceed θ, got {high}");
    }

    #[test]
    fn labelled_subset_changes_support() {
        let g = oriented_graph();
        let labels = g.labels().unwrap();
        let subset: Vec<usize> = (0..150).collect();
        let op = DirectedPattern::two_order()[1].materialize(g.adjacency()).unwrap();
        let r_full = pattern_label_correlation(&op, labels, 3, None);
        let r_half = pattern_label_correlation(&op, labels, 3, Some(&subset));
        // Same sign, both meaningful.
        assert!(r_full * r_half > 0.0, "full {r_full}, half {r_half}");
    }

    #[test]
    fn rank_patterns_puts_homophilous_first_on_oriented_graph() {
        let g = oriented_graph();
        let pats = DirectedPattern::two_order();
        let ops: Vec<CsrMatrix> =
            pats.iter().map(|p| p.materialize(g.adjacency()).unwrap()).collect();
        let ranked = rank_patterns(&ops, g.labels().unwrap(), 3, None);
        // A·Aᵀ (index 1) and Aᵀ·A (index 2) carry homophily here.
        assert!(ranked[0].0 == 1 || ranked[0].0 == 2, "ranked {ranked:?}");
        assert!(ranked[0].1 > ranked[3].1);
    }

    #[test]
    fn benchmark_replicas_match_paper_regimes() {
        for spec_name in ["cora_ml", "citeseer", "texas", "chameleon", "actor"] {
            let d = replica(spec_name, ReplicaScale::default(), 3);
            let report = amud_score(d.graph.adjacency(), d.labels(), d.n_classes());
            let expected = match d.spec.regime {
                amud_datasets::registry::AmudRegime::Directed => AmudDecision::Directed,
                amud_datasets::registry::AmudRegime::Undirected => AmudDecision::Undirected,
            };
            assert_eq!(
                report.decision, expected,
                "{spec_name}: S = {:.3}, expected {:?}",
                report.score, d.spec.regime
            );
        }
    }

    #[test]
    fn higher_order_amud_agrees_on_clear_cases() {
        let g = oriented_graph();
        let labels = g.labels().unwrap();
        let order2 = amud_score(g.adjacency(), labels, 3);
        let order3 = amud_score_order(g.adjacency(), labels, 3, None, None, 3, THETA);
        assert_eq!(order3.correlations.len(), 8, "order 3 has 2³ patterns");
        assert_eq!(order2.decision, order3.decision);
        let u = g.to_undirected();
        let sym3 = amud_score_order(u.adjacency(), u.labels().unwrap(), 3, None, None, 3, THETA);
        assert!(sym3.score < 1e-9, "symmetric graphs collapse at any order");
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        // No edges at all.
        let g = DiGraph::from_edges(5, Vec::<(usize, usize)>::new())
            .unwrap()
            .with_labels(vec![0, 1, 0, 1, 0], 2)
            .unwrap();
        let report = amud_score(g.adjacency(), g.labels().unwrap(), 2);
        assert_eq!(report.score, 0.0);
        assert_eq!(report.decision, AmudDecision::Undirected);
    }
}
