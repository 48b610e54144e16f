//! Row subsets for row-local forwards.
//!
//! A decoupled model (ADPA, Sec. IV-D) is node-wise once its features are
//! precomputed: row `i` of every intermediate depends only on row `i` of
//! its inputs. A loss that reads the `train` rows therefore needs only
//! those rows of the forward, and evaluation needs only `val ∪ test`.
//! [`Rows`] names such a subset of an `n`-row matrix: sorted, deduplicated
//! row ids.
//!
//! Ascending order is what keeps a row-local tape bit-identical to the
//! full-graph one. The only cross-row reductions in a node-wise backward
//! are the weight gradients (`matmul_transa`) and the bias gradients,
//! both ascending sums over rows. The rows a subset drops carry an
//! all-zero gradient, so in the full-graph sum they only add exact `±0`
//! terms to `+0`-started accumulators, which changes no bit.

use crate::linear::dropout_mask;
use crate::matrix::DenseMatrix;
use rand::Rng;
use std::rc::Rc;

/// A sorted, deduplicated subset of the rows `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    n: usize,
    ids: Rc<[usize]>,
}

impl Rows {
    /// Every row of an `n`-row matrix.
    pub fn all(n: usize) -> Self {
        Self { n, ids: (0..n).collect() }
    }

    /// The rows `ids` of an `n`-row matrix, sorted and deduplicated.
    ///
    /// # Panics
    /// Panics if an id is `>= n`.
    pub fn new(n: usize, ids: impl IntoIterator<Item = usize>) -> Self {
        let mut ids: Vec<usize> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        if let Some(&last) = ids.last() {
            assert!(last < n, "Rows: id {last} out of range for {n} rows");
        }
        Self { n, ids: ids.into() }
    }

    /// Row count of the full matrix the ids index into.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The selected row ids, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether every row `0..n` is selected (a sorted, deduplicated subset
    /// of `0..n` with `n` entries is all of it).
    pub fn is_all(&self) -> bool {
        self.ids.len() == self.n
    }

    /// Position of row `id` among the selected rows, if it is selected.
    pub fn position(&self, id: usize) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The selected rows of `m`, in ascending order.
    ///
    /// # Panics
    /// Panics if `m` does not have `n` rows.
    pub fn gather(&self, m: &DenseMatrix) -> DenseMatrix {
        assert_eq!(m.rows(), self.n, "Rows::gather: matrix rows != n");
        let cols = m.cols();
        let mut data = Vec::with_capacity(self.ids.len() * cols);
        for &r in self.ids.iter() {
            data.extend_from_slice(m.row(r));
        }
        DenseMatrix::from_vec(self.ids.len(), cols, data)
    }

    /// The inverse of [`Rows::gather`]: an `n`-row matrix holding row `i`
    /// of `m` at row `ids()[i]` and zeros everywhere else.
    ///
    /// # Panics
    /// Panics if `m` does not have `len()` rows.
    pub fn scatter(&self, m: &DenseMatrix) -> DenseMatrix {
        assert_eq!(m.rows(), self.ids.len(), "Rows::scatter: matrix rows != len");
        let mut out = DenseMatrix::zeros(self.n, m.cols());
        for (i, &r) in self.ids.iter().enumerate() {
            out.row_mut(r).copy_from_slice(m.row(i));
        }
        out
    }

    /// An inverted-dropout mask for the selected rows of an `n × cols`
    /// input. The mask is drawn over the full `n × cols` shape, row by
    /// row, so the RNG stream, and each kept row's mask, is the one a
    /// full-matrix forward would see; the draws of unselected rows are
    /// discarded as they are made, so only the selected rows are stored.
    pub fn dropout_mask<R: Rng>(&self, rng: &mut R, cols: usize, p: f32) -> Rc<Vec<f32>> {
        if self.is_all() {
            return dropout_mask(rng, self.n, cols, p);
        }
        // `dropout_mask` draws one `f32` per entry, row-major.
        let skip = |rng: &mut R, rows: usize| {
            for _ in 0..rows * cols {
                rng.gen::<f32>();
            }
        };
        let mut mask = Vec::with_capacity(self.ids.len() * cols);
        let mut next = 0;
        for &r in self.ids.iter() {
            skip(rng, r - next);
            mask.extend_from_slice(&dropout_mask(rng, 1, cols, p));
            next = r + 1;
        }
        skip(rng, self.n - next);
        Rc::new(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn new_sorts_and_dedups() {
        let rows = Rows::new(6, [4, 1, 4, 0]);
        assert_eq!(rows.ids(), &[0, 1, 4]);
        assert_eq!(rows.position(4), Some(2));
        assert_eq!(rows.position(3), None);
        assert!(!rows.is_all());
        assert!(Rows::new(3, [2, 0, 1, 1]).is_all());
        assert!(Rows::new(0, []).is_all());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let _ = Rows::new(3, [3]);
    }

    #[test]
    fn gather_then_scatter_keeps_the_selected_rows() {
        let m = DenseMatrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let rows = Rows::new(5, [3, 1]);
        let g = rows.gather(&m);
        assert_eq!(g.as_slice(), &[3.0, 4.0, 7.0, 8.0]);
        let s = rows.scatter(&g);
        for r in 0..5 {
            let want: &[f32] = if r == 1 || r == 3 { m.row(r) } else { &[0.0, 0.0] };
            assert_eq!(s.row(r), want);
        }
    }

    #[test]
    fn dropout_mask_is_the_gathered_full_mask() {
        // Selected rows at both ends, only inside, none.
        let sets: [&[usize]; 3] = [&[0, 2, 6], &[1, 3, 4], &[]];
        for ids in sets {
            let rows = Rows::new(7, ids.iter().copied());
            let mut a = rand::rngs::StdRng::seed_from_u64(3);
            let mut b = rand::rngs::StdRng::seed_from_u64(3);
            let local = rows.dropout_mask(&mut a, 4, 0.5);
            let full = dropout_mask(&mut b, 7, 4, 0.5);
            let want: Vec<f32> =
                ids.iter().flat_map(|&r| full[r * 4..r * 4 + 4].to_vec()).collect();
            assert_eq!(*local, want, "rows {ids:?}");
            // Both draws consumed the same RNG stream.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rows {ids:?}");
        }
    }
}
