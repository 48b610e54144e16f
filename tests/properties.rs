//! Property-based tests over the substrates' invariants (DESIGN.md §6)
//! and the failure model (§8): dataset serialization round-trips exactly,
//! and no corruption of the serialized bytes can panic the parser.

use amud_repro::core::amud::{amud_score, guidance_score};
use amud_repro::graph::measures::{adjusted_homophily, edge_homophily, label_informativeness};
use amud_repro::graph::patterns::DirectedPattern;
use amud_repro::graph::{CsrMatrix, DiGraph};
use amud_repro::nn::DenseMatrix;
use proptest::prelude::*;

/// Strategy: a random edge list over `n` nodes.
fn edges(n: usize, max_m: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..max_m)
}

/// Strategy: random weighted COO triplets over an `n × n` matrix
/// (duplicates allowed; `from_coo` sums them).
fn weighted(n: usize, max_m: usize) -> impl Strategy<Value = Vec<(usize, usize, f32)>> {
    prop::collection::vec((0..n, 0..n, -2.0f32..2.0), 0..max_m)
}

/// Every stored entry with its value's bits, row-major: equal lists mean
/// equal matrices bit for bit (the row structure included).
fn entry_bits(m: &CsrMatrix) -> Vec<(usize, usize, u32)> {
    m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

/// The `from_coo` rebuild the single-pass row filters replaced.
fn rebuilt(m: &CsrMatrix, triplets: Vec<(usize, usize, f32)>) -> CsrMatrix {
    let Ok(out) = CsrMatrix::from_coo(m.n_rows(), m.n_cols(), triplets) else {
        unreachable!("every triplet indexes inside m's shape")
    };
    out
}

/// Strategy: random labels over `n` nodes with `c` classes.
fn labels(n: usize, c: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..c, n)
}

proptest! {
    #[test]
    fn csr_from_coo_roundtrips(list in edges(20, 80)) {
        let m = CsrMatrix::from_edges(20, 20, list.clone()).unwrap();
        // Duplicate entries sum (documented from_coo semantics); the stored
        // value equals each pair's multiplicity, and nothing else exists.
        let mut counts: std::collections::HashMap<(usize, usize), f32> =
            std::collections::HashMap::new();
        for &(r, c) in &list {
            *counts.entry((r, c)).or_insert(0.0) += 1.0;
        }
        for (&(r, c), &want) in &counts {
            prop_assert_eq!(m.get(r, c), want);
        }
        prop_assert_eq!(m.nnz(), counts.len());
        // Rows are sorted strictly ascending.
        for r in 0..20 {
            let cols = m.row_cols(r);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn row_filters_match_the_coo_rebuild(
        list in weighted(16, 90),
        w in -2.0f32..2.0,
        salt in 0usize..5,
        row_scale in prop::collection::vec(-2.0f32..2.0, 16),
        col_scale in prop::collection::vec(-2.0f32..2.0, 16),
    ) {
        let m = CsrMatrix::from_coo(16, 16, list).unwrap();
        let off_diagonal: Vec<_> = m.iter().filter(|&(r, c, _)| r != c).collect();
        let want = rebuilt(&m, off_diagonal.clone());
        prop_assert_eq!(entry_bits(&m.without_diagonal()), entry_bits(&want));
        let loops = off_diagonal.into_iter().chain((0..16).map(|i| (i, i, w))).collect();
        let want = rebuilt(&m, loops);
        prop_assert_eq!(entry_bits(&m.with_self_loops(w)), entry_bits(&want));
        let keep = |r: usize, c: usize| !(r * 7 + c * 3 + salt).is_multiple_of(3);
        let want = rebuilt(&m, m.iter().filter(|&(r, c, _)| keep(r, c)).collect());
        prop_assert_eq!(entry_bits(&m.filter_entries(keep)), entry_bits(&want));
        // `scaled` against scaling every row, then every column.
        let two_pass: Vec<_> = m
            .iter()
            .map(|(r, c, v)| (r, c, ((v * row_scale[r]) * col_scale[c]).to_bits()))
            .collect();
        prop_assert_eq!(entry_bits(&m.scaled(&row_scale, &col_scale)), two_pass);
    }

    #[test]
    fn transpose_is_involution(list in edges(15, 60)) {
        let m = CsrMatrix::from_edges(15, 15, list).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn spmm_matches_dense_matmul(list in edges(10, 40), cols in 1usize..4) {
        let m = CsrMatrix::from_edges(10, 10, list).unwrap();
        let x = DenseMatrix::from_fn(10, cols, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let mut sparse_out = DenseMatrix::zeros(10, cols);
        m.spmm(x.as_slice(), cols, sparse_out.as_mut_slice());
        // Dense reference.
        let dense = m.to_dense();
        for r in 0..10 {
            for c in 0..cols {
                let want: f32 = (0..10).map(|k| dense[r * 10 + k] * x.get(k, c)).sum();
                prop_assert!((sparse_out.get(r, c) - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn bool_matmul_matches_dense_reachability(a_list in edges(8, 24), b_list in edges(8, 24)) {
        let a = CsrMatrix::from_edges(8, 8, a_list).unwrap();
        let b = CsrMatrix::from_edges(8, 8, b_list).unwrap();
        let prod = a.bool_matmul(&b).unwrap();
        let (da, db) = (a.to_dense(), b.to_dense());
        for r in 0..8 {
            for c in 0..8 {
                let reachable = (0..8).any(|k| da[r * 8 + k] != 0.0 && db[k * 8 + c] != 0.0);
                prop_assert_eq!(prod.get(r, c) != 0.0, reachable, "entry ({}, {})", r, c);
            }
        }
    }

    #[test]
    fn row_normalized_rows_sum_to_one_or_zero(list in edges(12, 50)) {
        let m = CsrMatrix::from_edges(12, 12, list).unwrap().row_normalized();
        for r in 0..12 {
            let s: f32 = m.row_values(r).iter().sum();
            prop_assert!(s.abs() < 1e-5 || (s - 1.0).abs() < 1e-5, "row {} sums to {}", r, s);
        }
    }

    #[test]
    fn undirected_transformation_is_idempotent(list in edges(15, 60)) {
        let g = DiGraph::from_edges(15, list).unwrap();
        let u1 = g.to_undirected();
        let u2 = u1.to_undirected();
        prop_assert_eq!(u1.n_edges(), u2.n_edges());
        prop_assert!(u1.is_symmetric());
    }

    #[test]
    fn edge_homophily_is_a_probability(list in edges(15, 60), ys in labels(15, 4)) {
        let g = DiGraph::from_edges(15, list).unwrap().with_labels(ys, 4).unwrap();
        let h = edge_homophily(g.adjacency(), g.labels().unwrap());
        prop_assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn adjusted_homophily_bounded_above_by_one(list in edges(15, 60), ys in labels(15, 3)) {
        let g = DiGraph::from_edges(15, list).unwrap().with_labels(ys, 3).unwrap();
        let h = adjusted_homophily(g.adjacency(), g.labels().unwrap(), 3);
        prop_assert!(h <= 1.0 + 1e-9, "H_adj = {}", h);
    }

    #[test]
    fn label_informativeness_in_unit_interval(list in edges(15, 60), ys in labels(15, 3)) {
        let g = DiGraph::from_edges(15, list).unwrap().with_labels(ys, 3).unwrap();
        let li = label_informativeness(g.adjacency(), g.labels().unwrap(), 3);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&li), "LI = {}", li);
    }

    #[test]
    fn patterns_collapse_on_symmetric_graphs(list in edges(10, 40)) {
        let g = DiGraph::from_edges(10, list).unwrap().to_undirected();
        let mats: Vec<Vec<f32>> = DirectedPattern::two_order()
            .iter()
            .map(|p| p.materialize(g.adjacency()).unwrap().to_dense())
            .collect();
        for m in &mats[1..] {
            prop_assert_eq!(m, &mats[0]);
        }
    }

    #[test]
    fn amud_score_zero_on_symmetric_graphs(list in edges(20, 80), ys in labels(20, 3)) {
        let g = DiGraph::from_edges(20, list).unwrap().with_labels(ys, 3).unwrap();
        let u = g.to_undirected();
        let report = amud_score(u.adjacency(), u.labels().unwrap(), 3);
        prop_assert!(report.score < 1e-9, "symmetric graph scored {}", report.score);
    }

    #[test]
    fn guidance_score_is_scale_free(r2 in prop::collection::vec(0.0f64..1.0, 4), scale in 0.01f64..100.0) {
        let scaled: Vec<f64> = r2.iter().map(|&x| x * scale).collect();
        let s1 = guidance_score(&r2);
        let s2 = guidance_score(&scaled);
        prop_assert!((s1 - s2).abs() < 1e-9, "{} vs {}", s1, s2);
    }

    #[test]
    fn guidance_score_nonnegative_and_zero_on_equal(x in 0.001f64..1.0) {
        prop_assert_eq!(guidance_score(&[x, x, x, x]), 0.0);
    }

    #[test]
    fn dense_matmul_associates_with_identity(rows in 1usize..6, cols in 1usize..6) {
        let x = DenseMatrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 * 0.5 - 1.0);
        let eye = DenseMatrix::from_fn(cols, cols, |r, c| if r == c { 1.0 } else { 0.0 });
        prop_assert_eq!(x.matmul(&eye), x);
    }

    #[test]
    fn concat_then_slice_recovers_parts(rows in 1usize..6, c1 in 1usize..5, c2 in 1usize..5) {
        let a = DenseMatrix::from_fn(rows, c1, |r, c| (r + c) as f32);
        let b = DenseMatrix::from_fn(rows, c2, |r, c| (r * c) as f32 - 1.0);
        let cat = DenseMatrix::concat_cols(&[&a, &b]);
        prop_assert_eq!(cat.slice_cols(0, c1), a);
        prop_assert_eq!(cat.slice_cols(c1, c1 + c2), b);
    }

    #[test]
    fn dataset_io_roundtrips_exactly(name_idx in 0usize..4, seed in 0u64..50) {
        use amud_repro::datasets::io::{dataset_from_text, dataset_to_text};
        use amud_repro::datasets::{replica, ReplicaScale};
        let name = ["texas", "cornell", "wisconsin", "chameleon"][name_idx];
        let d = replica(name, ReplicaScale::tiny(), seed);
        let back = dataset_from_text(&dataset_to_text(&d)).unwrap();
        prop_assert_eq!(back.name(), d.name());
        prop_assert_eq!(
            back.graph.edges().collect::<Vec<_>>(),
            d.graph.edges().collect::<Vec<_>>()
        );
        prop_assert_eq!(back.labels(), d.labels());
        prop_assert_eq!(&back.split, &d.split);
        prop_assert_eq!(&back.features, &d.features);
    }

    #[test]
    fn mutated_dataset_bytes_never_panic_the_parser(
        seed in 0u64..400,
        n_mutations in 1usize..64,
    ) {
        use amud_repro::datasets::io::{dataset_from_text, dataset_to_text};
        use amud_repro::datasets::{replica, ReplicaScale};
        use amud_repro::train::corrupt_bytes;
        let text = dataset_to_text(&replica("texas", ReplicaScale::tiny(), 0));
        // Ok (mutation hit a value without breaking syntax) and Err are
        // both fine — the property is the absence of a panic, plus error
        // line numbers that actually exist in the input.
        if let Err(amud_repro::datasets::DatasetError::Parse { line, .. }) =
            dataset_from_text(&corrupt_bytes(&text, seed, n_mutations))
        {
            prop_assert!(line >= 1 && line <= text.lines().count());
        }
    }

    #[test]
    fn truncated_dataset_bytes_never_panic_the_parser(cut_permille in 0usize..1000) {
        use amud_repro::datasets::io::{dataset_from_text, dataset_to_text};
        use amud_repro::datasets::{replica, ReplicaScale};
        let text = dataset_to_text(&replica("cornell", ReplicaScale::tiny(), 1));
        let keep = text.len() * cut_permille / 1000;
        // A strict prefix can never be a complete dataset.
        prop_assert!(dataset_from_text(&text[..keep]).is_err());
    }
}
