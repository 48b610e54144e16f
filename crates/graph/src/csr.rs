//! Compressed-sparse-row matrices.
//!
//! `CsrMatrix` is the workhorse of the whole reproduction: adjacency
//! matrices, directed-pattern operators, and normalised propagation
//! operators are all CSR. The design follows the usual database-engine
//! rules: construction validates and canonicalises once (sorted column
//! indices, no duplicates), after which every consumer may rely on those
//! invariants without re-checking.
//!
//! # Invariants
//!
//! * `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`,
//!   `row_ptr[n_rows] == col_idx.len() == values.len()`.
//! * Within each row, column indices are strictly increasing (sorted and
//!   deduplicated).
//! * All column indices are `< n_cols`.

use crate::{GraphError, Result};
use amud_par::lanes;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`CsrMatrix::spmm`] invocations.
///
/// Monotonic by design: the precompute benchmarks attribute spmm work to a
/// sweep by snapshotting before and after and subtracting, which stays
/// correct under concurrency where a reset would race.
#[allow(
    clippy::disallowed_methods,
    reason = "SPMM_CALLS: monotonic diagnostic counter for cache-hit accounting, not a \
              synchronisation primitive — never gates control flow"
)]
static SPMM_CALLS: AtomicU64 = AtomicU64::new(0);

/// Cumulative number of `spmm` invocations since process start. Snapshot
/// before and after a region and subtract to count its sparse products —
/// the measured (not estimated) evidence behind `BENCH_precompute.json`.
pub fn spmm_calls() -> u64 {
    SPMM_CALLS.load(Ordering::Relaxed)
}

/// A sparse matrix in compressed-sparse-row format with `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO triplets. Duplicate `(row, col)` entries
    /// are summed; rows and columns are canonicalised (sorted, deduped).
    pub fn from_coo(
        n_rows: usize,
        n_cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Result<Self> {
        let mut entries: Vec<(usize, usize, f32)> = triplets.into_iter().collect();
        for &(r, c, _) in &entries {
            if r >= n_rows {
                return Err(GraphError::NodeOutOfBounds { node: r, n: n_rows });
            }
            if c >= n_cols {
                return Err(GraphError::NodeOutOfBounds { node: c, n: n_cols });
            }
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; n_rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in entries {
            if last == Some((r, c)) {
                let Some(tail) = values.last_mut() else {
                    // `last` is only ever set right after a push, so a
                    // duplicate implies a previous entry exists.
                    unreachable!("duplicate implies a previous entry")
                };
                *tail += v;
                continue;
            }
            col_idx.push(c as u32);
            values.push(v);
            // Every r was range-checked against n_rows in
            // the validation loop above; row_ptr has n_rows + 1 slots.
            row_ptr[r + 1] += 1;
            last = Some((r, c));
        }
        // Prefix-sum the per-row counts into offsets.
        for i in 0..n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(Self { n_rows, n_cols, row_ptr, col_idx, values })
    }

    /// Builds a binary (all values `1.0`) adjacency-style matrix from edges.
    pub fn from_edges(
        n_rows: usize,
        n_cols: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self> {
        Self::from_coo(n_rows, n_cols, edges.into_iter().map(|(r, c)| (r, c, 1.0)))
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `r` (sorted ascending).
    pub fn row_cols(&self, r: usize) -> &[u32] {
        // CSR invariant — row_ptr holds n_rows + 1
        // ascending offsets capped by col_idx.len(); callers pass r < n_rows.
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r`, parallel to [`Self::row_cols`].
    pub fn row_values(&self, r: usize) -> &[f32] {
        // CSR invariant — row_ptr holds n_rows + 1
        // ascending offsets capped by values.len(); callers pass r < n_rows.
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Iterates `(row, col, value)` over all stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.n_rows).flat_map(move |r| {
            self.row_cols(r).iter().zip(self.row_values(r)).map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Looks up a single entry (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let cols = self.row_cols(r);
        match cols.binary_search(&(c as u32)) {
            // binary_search hit inside row_cols(r) and
            // row_values(r) has the same length (parallel CSR arrays).
            Ok(i) => self.row_values(r)[i],
            Err(_) => 0.0,
        }
    }

    /// Materialises the matrix densely, row-major. Intended for tests and
    /// small matrices only.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.n_rows * self.n_cols];
        // iter() yields r < n_rows and c < n_cols by the CSR
        // invariant; out has n_rows · n_cols slots.
        for (r, c, v) in self.iter() {
            out[r * self.n_cols + c] = v;
        }
        out
    }

    /// Transposes the matrix in O(nnz).
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.n_cols + 1];
        // Stored column indices are < n_cols by the CSR
        // invariant and counts has n_cols + 1 slots.
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        // Stored column indices are
        // < n_cols; cursor[c] walks counts[c]..counts[c + 1] ≤ nnz, and
        // col_idx/values were allocated with nnz slots.
        for (r, c, v) in self.iter() {
            let dst = cursor[c];
            col_idx[dst] = r as u32;
            values[dst] = v;
            cursor[c] += 1;
        }
        Self { n_rows: self.n_cols, n_cols: self.n_rows, row_ptr, col_idx, values }
    }

    /// Sparse matrix × dense vector: `out = self · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `out.len() != n_rows`.
    pub fn spmv(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.n_cols, "spmv: x length mismatch");
        assert_eq!(out.len(), self.n_rows, "spmv: out length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            // Stored column indices are < n_cols by the CSR
            // invariant; x.len() == n_cols is asserted above.
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                acc += v * x[c as usize];
            }
            *o = acc;
        }
    }

    /// Sparse matrix × dense matrix: `out = self · X`, where `X` is
    /// row-major `n_cols × x_cols` and `out` is row-major `n_rows × x_cols`.
    ///
    /// This is the hot loop of feature propagation; it streams each sparse
    /// row once and accumulates whole dense rows through the lane axpy
    /// microkernels (`amud_par::lanes`): four nonzeros at a time feed one
    /// [`lanes::lane_axpy4`], so the output row stays register-resident
    /// across four gathered rows of `X`. Per output element the terms
    /// still arrive in ascending nonzero order, one fused `+= v·x` each —
    /// bit-identical to the legacy scalar loop, and therefore to serial at
    /// any `AMUD_THREADS`. Output rows are split into per-thread blocks
    /// with *nnz-balanced* boundaries (`row_ptr` is exactly the
    /// cumulative-work prefix the partitioner wants), so one hub row
    /// cannot serialise the whole product; blocks below a per-part work
    /// floor degenerate to the serial path (see [`Self::spmm_parts`]).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn spmm(&self, x: &[f32], x_cols: usize, out: &mut [f32]) {
        assert_eq!(x.len(), self.n_cols * x_cols, "spmm: X shape mismatch");
        assert_eq!(out.len(), self.n_rows * x_cols, "spmm: out shape mismatch");
        debug_assert!(
            self.values.iter().all(|v| v.is_finite()),
            "spmm: non-finite edge weight in operator"
        );
        debug_assert!(x.iter().all(|v| v.is_finite()), "spmm: non-finite input entry");
        SPMM_CALLS.fetch_add(1, Ordering::Relaxed);
        if x_cols == 0 {
            return;
        }
        // Stored column indices are < n_cols by the CSR
        // invariant and x.len() == n_cols · x_cols is asserted above.
        let x_row = |c: u32| &x[c as usize * x_cols..(c as usize + 1) * x_cols];
        let parts = self.spmm_parts(x_cols);
        amud_par::par_row_blocks_mut(out, x_cols, &parts, |_, rows, block| {
            block.fill(0.0);
            for (out_row, r) in block.chunks_exact_mut(x_cols).zip(rows) {
                let cols = self.row_cols(r);
                let vals = self.row_values(r);
                let main = cols.len() - cols.len() % 4;
                // row_values(r) parallels row_cols(r) — the
                // same row_ptr window — so main ≤ vals.len().
                for tb in 0..main / 4 {
                    let t = tb * 4;
                    lanes::lane_axpy4(
                        out_row,
                        [vals[t], vals[t + 1], vals[t + 2], vals[t + 3]],
                        x_row(cols[t]),
                        x_row(cols[t + 1]),
                        x_row(cols[t + 2]),
                        x_row(cols[t + 3]),
                    );
                }
                for (&c, &v) in cols.iter().zip(vals).skip(main) {
                    lanes::lane_axpy(out_row, v, x_row(c));
                }
            }
        });
    }

    /// Row partition for [`Self::spmm`]: nnz-balanced cuts of `row_ptr`,
    /// with the part count capped so every part carries at least
    /// [`SPMM_MIN_FLOPS_PER_PART`] multiply-adds — below that a part
    /// finishes in microseconds and the pool handoff dominates, so small
    /// products degenerate to a single serial range. Purely a function of
    /// the sparsity pattern, `x_cols`, and the thread budget.
    fn spmm_parts(&self, x_cols: usize) -> Vec<std::ops::Range<usize>> {
        /// Minimum multiply-adds *per part* before `spmm` fans out.
        const SPMM_MIN_FLOPS_PER_PART: usize = 1 << 15;
        let work = self.nnz().saturating_mul(x_cols);
        let parts = amud_par::current_threads().min(work / SPMM_MIN_FLOPS_PER_PART).max(1);
        if parts <= 1 {
            std::iter::once(0..self.n_rows).collect()
        } else {
            amud_par::split_by_weight(&self.row_ptr, parts)
        }
    }

    /// Boolean sparse×sparse product: returns the *pattern* of `self · other`
    /// with all values set to `1.0`. Used to build 2-order directed-pattern
    /// operators (`A·A`, `A·Aᵀ`, ...), where only which pairs are reachable
    /// matters, not path multiplicity.
    ///
    /// Uses the classic row-wise expansion with a dense marker array:
    /// O(Σ_r Σ_{c ∈ row r} nnz(other row c)).
    pub fn bool_matmul(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.n_cols != other.n_rows {
            return Err(GraphError::DimensionMismatch {
                expected: (self.n_cols, self.n_cols),
                got: (other.n_rows, other.n_cols),
            });
        }
        let n_rows = self.n_rows;
        let n_cols = other.n_cols;
        let mut marker = vec![u32::MAX; n_cols];
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for r in 0..n_rows {
            scratch.clear();
            for &mid in self.row_cols(r) {
                // other's stored column indices are
                // < other.n_cols by the CSR invariant; marker has n_cols ==
                // other.n_cols slots.
                for &c in other.row_cols(mid as usize) {
                    if marker[c as usize] != r as u32 {
                        marker[c as usize] = r as u32;
                        scratch.push(c);
                    }
                }
            }
            scratch.sort_unstable();
            col_idx.extend_from_slice(&scratch);
            row_ptr.push(col_idx.len());
        }
        let values = vec![1.0; col_idx.len()];
        Ok(CsrMatrix { n_rows, n_cols, row_ptr, col_idx, values })
    }

    /// Boolean union of two same-shaped matrices (pattern OR, values `1.0`).
    /// This is the "coarse undirected transformation": `A ∪ Aᵀ`.
    pub fn bool_union(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols) {
            return Err(GraphError::DimensionMismatch {
                expected: (self.n_rows, self.n_cols),
                got: (other.n_rows, other.n_cols),
            });
        }
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u32> = Vec::new();
        for r in 0..self.n_rows {
            let (a, b) = (self.row_cols(r), other.row_cols(r));
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let next = match (a.get(i), b.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        i += 1;
                        j += 1;
                        x
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        i += 1;
                        x
                    }
                    (Some(_), Some(&y)) => {
                        j += 1;
                        y
                    }
                    (Some(&x), None) => {
                        i += 1;
                        x
                    }
                    (None, Some(&y)) => {
                        j += 1;
                        y
                    }
                    (None, None) => unreachable!("loop condition guarantees one side"),
                };
                col_idx.push(next);
            }
            row_ptr.push(col_idx.len());
        }
        let values = vec![1.0; col_idx.len()];
        Ok(CsrMatrix { n_rows: self.n_rows, n_cols: self.n_cols, row_ptr, col_idx, values })
    }

    /// Removes any diagonal entries (self-loops).
    pub fn without_diagonal(&self) -> CsrMatrix {
        self.filter_entries(|r, c| r != c)
    }

    /// Adds self-loops with weight `w` (overwriting any existing diagonal).
    ///
    /// One pass over the rows: each row keeps its off-diagonal entries in
    /// order and gets `(r, r, w)` at its sorted position, so the result is
    /// the canonical CSR of those entries without a sort.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn with_self_loops(&self, w: f32) -> CsrMatrix {
        assert_eq!(self.n_rows, self.n_cols, "self-loops require a square matrix");
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz() + self.n_rows);
        let mut values = Vec::with_capacity(self.nnz() + self.n_rows);
        for r in 0..self.n_rows {
            let diag = r as u32;
            let mut placed = false;
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                if c == diag {
                    continue;
                }
                if !placed && c > diag {
                    col_idx.push(diag);
                    values.push(w);
                    placed = true;
                }
                col_idx.push(c);
                values.push(v);
            }
            if !placed {
                col_idx.push(diag);
                values.push(w);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { n_rows: self.n_rows, n_cols: self.n_cols, row_ptr, col_idx, values }
    }

    /// Row sums (weighted out-degrees for an adjacency matrix).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.n_rows).map(|r| self.row_values(r).iter().sum()).collect()
    }

    /// Column sums (weighted in-degrees for an adjacency matrix).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.n_cols];
        // iter() yields c < n_cols by the CSR invariant and
        // sums has n_cols slots.
        for (_, c, v) in self.iter() {
            sums[c] += v;
        }
        sums
    }

    /// Scales each entry `(r, c)` by `row_scale[r]` and then by
    /// `col_scale[c]`, in one pass: `(v · row_scale[r]) · col_scale[c]`.
    pub fn scaled(&self, row_scale: &[f32], col_scale: &[f32]) -> CsrMatrix {
        assert_eq!(row_scale.len(), self.n_rows, "scaled: row scale length mismatch");
        assert_eq!(col_scale.len(), self.n_cols, "scaled: col scale length mismatch");
        let mut values = Vec::with_capacity(self.nnz());
        // Stored column indices are < n_cols by the CSR invariant and
        // col_scale.len() == n_cols is asserted above.
        for (r, &rs) in row_scale.iter().enumerate() {
            for (&v, &c) in self.row_values(r).iter().zip(self.row_cols(r)) {
                values.push(v * rs * col_scale[c as usize]);
            }
        }
        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
        }
    }

    /// GCN-style degree normalisation `D^{r-1} Â D^{-r}` (Eq. 1 of the
    /// paper), where `D` holds row sums and `r ∈ [0, 1]`:
    ///
    /// * `r = 0` — reverse-transition `D⁻¹ Â` (row-stochastic),
    /// * `r = 0.5` — symmetric `D^{-1/2} Â D^{-1/2}`,
    /// * `r = 1` — random-walk `Â D⁻¹` (column-stochastic for symmetric Â).
    ///
    /// Rows/columns with zero degree are left unscaled (their factor is 0,
    /// which zeroes the entries — isolated nodes propagate nothing).
    pub fn normalized(&self, r: f32) -> CsrMatrix {
        let row_deg = self.row_sums();
        let col_deg = self.col_sums();
        let row_scale: Vec<f32> =
            row_deg.iter().map(|&d| if d > 0.0 { d.powf(r - 1.0) } else { 0.0 }).collect();
        let col_scale: Vec<f32> =
            col_deg.iter().map(|&d| if d > 0.0 { d.powf(-r) } else { 0.0 }).collect();
        self.scaled(&row_scale, &col_scale)
    }

    /// Row-stochastic normalisation `D⁻¹ A` — each row sums to 1 (or stays
    /// all-zero for isolated nodes). This is the propagation operator ADPA
    /// uses for every directed pattern.
    pub fn row_normalized(&self) -> CsrMatrix {
        self.normalized(0.0)
    }

    /// Symmetric normalisation `D^{-1/2} A D^{-1/2}`.
    pub fn sym_normalized(&self) -> CsrMatrix {
        self.normalized(0.5)
    }

    /// Keeps only entries for which `keep(row, col)` returns true.
    ///
    /// One pass over the rows: the survivors of a sorted, duplicate-free
    /// row are still sorted and duplicate-free, so they are copied in
    /// order.
    pub fn filter_entries(&self, mut keep: impl FnMut(usize, usize) -> bool) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.n_rows {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                if keep(r, c as usize) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { n_rows: self.n_rows, n_cols: self.n_cols, row_ptr, col_idx, values }
    }

    /// Structural equality of the sparsity pattern (ignores values).
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        self.n_rows == other.n_rows
            && self.n_cols == other.n_cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// Linear combination `alpha * self + beta * other` (same shape).
    pub fn add_scaled(&self, alpha: f32, other: &CsrMatrix, beta: f32) -> Result<CsrMatrix> {
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols) {
            return Err(GraphError::DimensionMismatch {
                expected: (self.n_rows, self.n_cols),
                got: (other.n_rows, other.n_cols),
            });
        }
        let triplets = self
            .iter()
            .map(|(r, c, v)| (r, c, alpha * v))
            .chain(other.iter().map(|(r, c, v)| (r, c, beta * v)));
        CsrMatrix::from_coo(self.n_rows, self.n_cols, triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // 3x3: edges (0,1), (0,2), (1,2), (2,0)
        CsrMatrix::from_edges(3, 3, vec![(0, 1), (0, 2), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_coo_sorts_and_dedups() {
        let m = CsrMatrix::from_coo(2, 3, vec![(1, 2, 1.0), (0, 1, 2.0), (1, 2, 3.0), (0, 0, 1.0)])
            .unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 2), 4.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.row_cols(0), &[0, 1]);
    }

    #[test]
    fn from_coo_rejects_out_of_bounds() {
        let err = CsrMatrix::from_edges(2, 2, vec![(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfBounds { node: 5, n: 2 });
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_moves_entries() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.get(1, 0), 1.0);
        assert_eq!(t.get(0, 2), 1.0);
        assert_eq!(t.get(2, 1), 1.0);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 1), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = small();
        let x = [1.0, 2.0, 3.0];
        let mut out = [0.0; 3];
        m.spmv(&x, &mut out);
        assert_eq!(out, [5.0, 3.0, 1.0]);
    }

    #[test]
    fn spmm_matches_spmv_per_column() {
        let m = small();
        // X = 3x2
        let x = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        let mut out = vec![0.0; 6];
        m.spmm(&x, 2, &mut out);
        assert_eq!(out, vec![5.0, 50.0, 3.0, 30.0, 1.0, 10.0]);
    }

    #[test]
    fn bool_matmul_two_hop() {
        let m = small();
        let two_hop = m.bool_matmul(&m).unwrap();
        // 0->1->2, 0->2->0, 1->2->0, 2->0->1, 2->0->2
        assert_eq!(two_hop.get(0, 2), 1.0);
        assert_eq!(two_hop.get(0, 0), 1.0);
        assert_eq!(two_hop.get(1, 0), 1.0);
        assert_eq!(two_hop.get(2, 1), 1.0);
        assert_eq!(two_hop.get(2, 2), 1.0);
        assert_eq!(two_hop.nnz(), 5);
    }

    #[test]
    fn bool_union_symmetrizes() {
        let m = small();
        let u = m.bool_union(&m.transpose()).unwrap();
        for (r, c, _) in u.iter() {
            assert_eq!(u.get(c, r), 1.0, "union with transpose must be symmetric");
        }
        // 4 directed edges, one reciprocal pair (0,2)/(2,0) => 6 entries
        assert_eq!(u.nnz(), 6);
    }

    #[test]
    fn self_loops_and_diagonal_removal() {
        let m = small().with_self_loops(1.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.nnz(), 7);
        let no_diag = m.without_diagonal();
        assert_eq!(no_diag.nnz(), 4);
        assert_eq!(no_diag.get(0, 0), 0.0);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let m = small().row_normalized();
        for r in 0..3 {
            let s: f32 = m.row_values(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn sym_normalized_is_symmetric_for_symmetric_input() {
        let sym = small().bool_union(&small().transpose()).unwrap();
        let n = sym.sym_normalized();
        for (r, c, v) in n.iter() {
            assert!((n.get(c, r) - v).abs() < 1e-6);
        }
    }

    #[test]
    fn normalized_zero_degree_rows_stay_zero() {
        // node 2 has no out-edges
        let m = CsrMatrix::from_edges(3, 3, vec![(0, 1), (1, 0)]).unwrap();
        let n = m.row_normalized();
        assert_eq!(n.row_cols(2).len(), 0);
        let s: f32 = n.row_values(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn identity_acts_as_identity_in_spmm() {
        let i = CsrMatrix::identity(3);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![0.0; 6];
        i.spmm(&x, 2, &mut out);
        assert_eq!(out.as_slice(), x.as_slice());
    }

    #[test]
    fn add_scaled_combines() {
        let a = small();
        let b = a.transpose();
        let c = a.add_scaled(0.5, &b, 0.5).unwrap();
        assert_eq!(c.get(0, 1), 0.5);
        assert_eq!(c.get(1, 0), 0.5);
        assert_eq!(c.get(0, 2), 1.0, "reciprocal pair sums");
        assert_eq!(c.nnz(), 6);
    }

    #[test]
    fn filter_entries_drops() {
        let m = small().filter_entries(|r, _| r != 0);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_cols(0).len(), 0);
    }

    #[test]
    fn to_dense_matches_get() {
        let m = small();
        let d = m.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[r * 3 + c], m.get(r, c));
            }
        }
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(4, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.n_rows(), 4);
        assert_eq!(z.n_cols(), 5);
    }
}
