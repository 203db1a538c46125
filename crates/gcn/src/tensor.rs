//! Dense and sparse matrix primitives.

use crate::GcnError;
use rand::Rng;

/// A row-major dense matrix of `f64`.
///
/// # Examples
///
/// ```
/// use eda_cloud_gcn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let mut out = Matrix::zeros(0, 0);
/// a.matmul_into(&b, &mut out);
/// assert_eq!(out, a);
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s allocation when it is large enough: the int8
    /// serving scratch copies each chunk's features into a kept buffer.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization.
    #[must_use]
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Reshape to `rows x cols` with every element zeroed, reusing the
    /// existing allocation when it is large enough.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape to `rows x cols` *without* clearing surviving elements,
    /// for kernels that overwrite every element before reading any —
    /// skipping the memset [`Matrix::reshape_zeroed`] pays on multi-MB
    /// outputs. Space beyond the previous length is still zeroed.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Flat row-major data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs` into a caller-owned buffer, reusing
    /// its allocation. Large batched products otherwise allocate past the
    /// allocator's mmap threshold and pay a page-fault storm per call;
    /// the model keeps its buffers in a per-thread scratch instead. `out`
    /// is reshaped and zeroed.
    ///
    /// Per output row the non-zero entries of `self`'s row are gathered
    /// 64 of `k` at a time and the matching rows of `rhs` folded onto it
    /// several per pass. A 16- or 32-column `rhs` instead keeps each
    /// output row in a register tile across all of its terms and stores
    /// it once. Either way every output element accumulates its terms in
    /// ascending `k` onto `+0.0`, and a `self[i][k] == 0.0` term is never
    /// formed (`NaN` is not zero and is kept).
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        match rhs.cols {
            16 => return self.tile_rows::<16>(rhs, out),
            32 => return self.tile_rows::<32>(rhs, out),
            _ => {}
        }
        let c = rhs.cols;
        out.reshape_zeroed(self.rows, c);
        let (mut idx, mut val) = ([0usize; GATHER_BLOCK], [0.0f64; GATHER_BLOCK]);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let acc = &mut out.data[i * c..(i + 1) * c];
            for k0 in (0..self.cols).step_by(GATHER_BLOCK) {
                let ks = k0..(k0 + GATHER_BLOCK).min(self.cols);
                let m = gather(ks.map(|k| (k, arow[k])), &mut idx, &mut val);
                fold_rows(acc, &idx[..m], &val[..m], &rhs.data);
            }
        }
    }

    /// Fused transposed product `selfᵀ · rhs` into a caller-owned
    /// buffer — the weight-gradient kernel (`∂L/∂W = Hᵀ·dZ`), without
    /// materializing the transpose. The two tall operands are walked
    /// once, 64 rows at a time: within a block, output row `i` gathers
    /// the non-zero entries of column `i` of `self` (a strided read of a
    /// panel that is still in cache) and the matching rows of `rhs` are
    /// folded onto it several per pass, so the small
    /// `self.cols x rhs.cols` output is swept once per block of `k`
    /// rather than once per `k`, however tall the operands are. Every
    /// output element accumulates its terms in ascending `k` and skips
    /// `self[k][i] == 0.0`, exactly like [`Matrix::matmul_into`] on the
    /// materialized transpose, so the result is bit-identical to it. A
    /// 16- or 32-column `rhs` folds each block's terms onto a register
    /// tile of the output row instead, loaded and stored once per block.
    ///
    /// # Panics
    ///
    /// Panics if the operands' row counts differ.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "inner dimensions must agree");
        match rhs.cols {
            16 => return self.tile_tn::<16>(rhs, out),
            32 => return self.tile_tn::<32>(rhs, out),
            _ => {}
        }
        let c = rhs.cols;
        out.reshape_zeroed(self.cols, c);
        let (mut idx, mut val) = ([0usize; GATHER_BLOCK], [0.0f64; GATHER_BLOCK]);
        for k0 in (0..self.rows).step_by(GATHER_BLOCK) {
            let ks = k0..(k0 + GATHER_BLOCK).min(self.rows);
            for i in 0..self.cols {
                let column = ks.clone().map(|k| (k, self.data[k * self.cols + i]));
                let m = gather(column, &mut idx, &mut val);
                fold_rows(&mut out.data[i * c..(i + 1) * c], &idx[..m], &val[..m], &rhs.data);
            }
        }
    }

    /// [`Matrix::matmul_into`] for a `W`-column `rhs`: each output row
    /// is accumulated in a `[f64; W]` tile over all of its terms and
    /// stored once. The zero skip is a branch here, not a [`gather`]:
    /// on the fast model's training rows the branch measured faster
    /// (DESIGN.md § Raw-speed kernels, "Narrow rows in registers").
    fn tile_rows<const W: usize>(&self, rhs: &Matrix, out: &mut Matrix) {
        out.reshape_for_overwrite(self.rows, W);
        let (w_rows, _) = rhs.data.as_chunks::<W>();
        let (o_rows, _) = out.data.as_chunks_mut::<W>();
        for (i, orow) in o_rows.iter_mut().enumerate() {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = [0.0; W];
            tile_fold(&mut acc, arow.iter().copied().zip(w_rows));
            *orow = acc;
        }
    }

    /// [`Matrix::matmul_tn_into`] for a `W`-column `rhs`, in the same
    /// 64-row blocks: within a block, output row `i` is loaded into a
    /// `[f64; W]` tile, the block's non-zero entries of column `i` are
    /// gathered and their terms added, and the row is stored back. The
    /// skip is a [`gather`]: a branch read the same on training data but
    /// 2.5× slower on a tall column of a random ReLU mask.
    fn tile_tn<const W: usize>(&self, rhs: &Matrix, out: &mut Matrix) {
        out.reshape_zeroed(self.cols, W);
        let (w_rows, _) = rhs.data.as_chunks::<W>();
        let (o_rows, _) = out.data.as_chunks_mut::<W>();
        let (mut idx, mut val) = ([0usize; GATHER_BLOCK], [0.0f64; GATHER_BLOCK]);
        for k0 in (0..self.rows).step_by(GATHER_BLOCK) {
            let ks = k0..(k0 + GATHER_BLOCK).min(self.rows);
            for (i, orow) in o_rows.iter_mut().enumerate() {
                let column = ks.clone().map(|k| (k, self.data[k * self.cols + i]));
                let m = gather(column, &mut idx, &mut val);
                let terms = val[..m].iter().copied().zip(idx[..m].iter().map(|&k| &w_rows[k]));
                let mut acc = *orow;
                tile_fold(&mut acc, terms);
                *orow = acc;
            }
        }
    }

    /// Transpose into a caller-owned buffer.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.reshape_for_overwrite(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// In-place elementwise sum `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place element-wise ReLU, `max(v, 0)`.
    pub fn relu_in_place(&mut self) {
        for v in &mut self.data {
            *v = v.max(0.0);
        }
    }

    /// ReLU's backward pass in place, `grad * (z > 0)`. `activation` may
    /// be `z` or `ReLU(z)`: both select the same entries (`NaN.max(0.0)`
    /// is `0.0`), so a layer keeps only its output for the backward pass.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn relu_mask(&mut self, activation: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (activation.rows, activation.cols),
            "shape mismatch"
        );
        for (g, &z) in self.data.iter_mut().zip(&activation.data) {
            *g = if z > 0.0 { *g } else { 0.0 };
        }
    }

    /// Sum over rows (column sums), producing a `1 x cols` matrix —
    /// the sum-pooling readout.
    #[must_use]
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] into a caller-owned buffer; rows are added
    /// in ascending order onto a zeroed accumulator.
    pub(crate) fn sum_rows_into(&self, out: &mut Matrix) {
        out.reshape_zeroed(1, self.cols);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }
}

/// Operand entries of `k` gathered per pass of the dense kernels: the
/// size of their two stack arrays (1 KiB together), so a product of
/// any inner dimension allocates nothing.
const GATHER_BLOCK: usize = 64;

/// Compact the non-zero `(k, a)` entries of one block of an operand row
/// (or column) into `idx` / `val`, in the order given; returns how many
/// were kept. Branchless: every entry is written and the cursor only
/// advances past `a != 0.0` — which holds for `NaN`, so exactly the
/// entries an `if a == 0.0 { continue }` would skip (`+0.0`, `-0.0`)
/// are dropped. After ReLU about half the entries are zeros, a coin flip
/// a branch predictor cannot learn.
fn gather(
    entries: impl Iterator<Item = (usize, f64)>,
    idx: &mut [usize; GATHER_BLOCK],
    val: &mut [f64; GATHER_BLOCK],
) -> usize {
    let mut m = 0;
    for (k, a) in entries {
        idx[m] = k;
        val[m] = a;
        m += usize::from(a != 0.0);
    }
    m
}

/// `acc += Σ val[t] · rhs_row(idx[t])`, terms added in the order given,
/// eight, then four, then one row of `rhs` per pass over `acc` (`rhs`
/// is row-major with rows as long as `acc`). Each pass is the single
/// left-associated expression `acc[j] + a0·w0[j] + a1·w1[j] + …`, so
/// per element the additions happen in exactly the sequence of one
/// AXPY per term — the accumulator just stays in a register for eight
/// of them instead of being stored and reloaded after each. Nothing is
/// fused or reassociated; lanes run across `j`.
fn fold_rows(acc: &mut [f64], idx: &[usize], val: &[f64], rhs: &[f64]) {
    let c = acc.len();
    let row = |k: usize| &rhs[k * c..][..c];
    let (mut idx8, mut val8) = (idx.chunks_exact(8), val.chunks_exact(8));
    for (k, a) in (&mut idx8).zip(&mut val8) {
        let w: [&[f64]; 8] = std::array::from_fn(|t| row(k[t]));
        for (j, o) in acc.iter_mut().enumerate() {
            *o = *o
                + a[0] * w[0][j]
                + a[1] * w[1][j]
                + a[2] * w[2][j]
                + a[3] * w[3][j]
                + a[4] * w[4][j]
                + a[5] * w[5][j]
                + a[6] * w[6][j]
                + a[7] * w[7][j];
        }
    }
    let (mut idx4, mut val4) = (idx8.remainder().chunks_exact(4), val8.remainder().chunks_exact(4));
    for (k, a) in (&mut idx4).zip(&mut val4) {
        let w: [&[f64]; 4] = std::array::from_fn(|t| row(k[t]));
        for (j, o) in acc.iter_mut().enumerate() {
            *o = *o + a[0] * w[0][j] + a[1] * w[1][j] + a[2] * w[2][j] + a[3] * w[3][j];
        }
    }
    for (&k, &a) in idx4.remainder().iter().zip(val4.remainder()) {
        for (o, &b) in acc.iter_mut().zip(row(k)) {
            *o += a * b;
        }
    }
}

/// `acc += a · w` for each `(a, w)` pair in the order given, skipping
/// `a == 0.0` exactly as [`gather`] does (`NaN` is kept). The tile stays
/// in registers across all of the terms, and each element still gets
/// one product added per term onto whatever it held.
fn tile_fold<'w, const W: usize>(
    acc: &mut [f64; W],
    terms: impl Iterator<Item = (f64, &'w [f64; W])>,
) {
    for (a, w) in terms {
        if a != 0.0 {
            for (o, &b) in acc.iter_mut().zip(w) {
                *o += a * b;
            }
        }
    }
}

/// A CSR sparse matrix used for the (normalized) adjacency.
///
/// Only the operations the GCN needs are provided: sparse-dense product
/// and transpose-product for the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `offsets[r]..offsets[r + 1]` index row `r`'s stored entries.
    pub(crate) offsets: Vec<u32>,
    /// Column of every stored entry, row by row in storage order.
    pub(crate) indices: Vec<u32>,
    /// Value of every stored entry, aligned with `indices`.
    pub(crate) values: Vec<f64>,
}

impl SparseMatrix {
    /// Build from triplets `(row, col, value)`; triplets must be sorted
    /// by row (column order within a row is free, duplicates are summed
    /// by the consumer's semantics — we keep them as-is).
    ///
    /// # Panics
    ///
    /// Panics if a triplet is out of range or rows are not sorted.
    #[must_use]
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut offsets = vec![0u32; rows + 1];
        let mut last_row = 0u32;
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows && (c as usize) < cols, "out of range");
            assert!(r >= last_row, "triplets must be sorted by row");
            last_row = r;
            offsets[r as usize + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        Self {
            rows,
            cols,
            offsets,
            indices: triplets.iter().map(|t| t.1).collect(),
            values: triplets.iter().map(|t| t.2).collect(),
        }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate the stored entries as `(row, col, value)` triplets in
    /// row-major storage order — the order [`SparseMatrix::from_triplets`]
    /// received them in.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.offsets[r] as usize..self.offsets[r + 1] as usize)
                .map(move |k| (r as u32, self.indices[k], self.values[k]))
        })
    }

    /// Sparse-dense product `self * dense` into a caller-owned buffer,
    /// reusing its allocation (see [`Matrix::matmul_into`] for why the
    /// serving hot loop needs this). `out` is reshaped and zeroed.
    ///
    /// This is the serving hot kernel, laid out SIMD-friendly: the
    /// output row is resolved once per CSR row (not once per stored
    /// entry) and the inner loop is a unit-stride `out += v * dense_row`
    /// AXPY over contiguous slices, which autovectorizes. Each output
    /// element accumulates its terms in CSR storage order, so the
    /// result is bit-identical to the naive triple loop.
    ///
    /// # Errors
    ///
    /// Returns [`GcnError::ShapeMismatch`] when `self.cols` does not
    /// match `dense.rows()`, [`GcnError::ColumnOutOfRange`] when a
    /// stored entry's column index points outside the matrix, and
    /// [`GcnError::CorruptSparse`] when the row-offset table is
    /// inconsistent (both arise from deserialized or hand-built
    /// operands — [`SparseMatrix::from_triplets`] never produces
    /// them). `out` holds an unspecified partial product after an
    /// error.
    pub fn matmul_into(&self, dense: &Matrix, out: &mut Matrix) -> Result<(), GcnError> {
        if self.cols != dense.rows() {
            return Err(GcnError::ShapeMismatch {
                op: "sparse matmul",
                expected: (self.cols, dense.cols()),
                found: (dense.rows(), dense.cols()),
            });
        }
        let c = dense.cols();
        out.reshape_zeroed(self.rows, c);
        let dense_data = &dense.data;
        let out_data = &mut out.data;
        for r in 0..self.rows {
            let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
            let (idx, vals) = match (self.indices.get(lo..hi), self.values.get(lo..hi)) {
                (Some(i), Some(v)) => (i, v),
                _ => return Err(GcnError::CorruptSparse { row: r }),
            };
            let orow = &mut out_data[r * c..(r + 1) * c];
            for (&j, &v) in idx.iter().zip(vals) {
                let j = j as usize;
                let Some(drow) = dense_data.get(j * c..j * c + c) else {
                    return Err(GcnError::ColumnOutOfRange {
                        row: r,
                        col: j,
                        cols: self.cols,
                    });
                };
                for (o, &d) in orow.iter_mut().zip(drow) {
                    *o += v * d;
                }
            }
        }
        Ok(())
    }

    /// Transposed sparse-dense product `selfᵀ * dense` (needed to push
    /// gradients backward through the aggregation) into a caller-owned
    /// buffer, reusing its allocation. `out` is reshaped and zeroed; each
    /// stored entry `(r, j, v)` scatters `v · dense[r]` onto output row
    /// `j` in CSR storage order.
    ///
    /// # Errors
    ///
    /// The same typed errors as [`SparseMatrix::matmul_into`]:
    /// [`GcnError::ShapeMismatch`] when `self.rows` does not match
    /// `dense.rows()`, [`GcnError::ColumnOutOfRange`] and
    /// [`GcnError::CorruptSparse`] for a deserialized or hand-built
    /// operand whose arrays are inconsistent. `out` holds an
    /// unspecified partial product after an error.
    pub fn matmul_transposed_into(&self, dense: &Matrix, out: &mut Matrix) -> Result<(), GcnError> {
        if self.rows != dense.rows() {
            return Err(GcnError::ShapeMismatch {
                op: "sparse transposed matmul",
                expected: (self.rows, dense.cols()),
                found: (dense.rows(), dense.cols()),
            });
        }
        let c = dense.cols();
        out.reshape_zeroed(self.cols, c);
        for r in 0..self.rows {
            let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
            let (idx, vals) = match (self.indices.get(lo..hi), self.values.get(lo..hi)) {
                (Some(i), Some(v)) => (i, v),
                _ => return Err(GcnError::CorruptSparse { row: r }),
            };
            let drow = &dense.data[r * c..(r + 1) * c];
            for (&j, &v) in idx.iter().zip(vals) {
                let j = j as usize;
                let Some(orow) = out.data.get_mut(j * c..j * c + c) else {
                    return Err(GcnError::ColumnOutOfRange {
                        row: r,
                        col: j,
                        cols: self.cols,
                    });
                };
                for (o, &d) in orow.iter_mut().zip(drow) {
                    *o += v * d;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut c);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let (mut t, mut back) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        a.transpose_into(&mut t);
        t.transpose_into(&mut back);
        assert_eq!(back, a);
        assert_eq!(t.get(2, 1), 6.0);
    }

    /// The mask keeps a gradient exactly where the activation is
    /// positive, and reads the same from `z` as from `ReLU(z)`.
    #[test]
    fn relu_and_backward() {
        let z = Matrix::from_rows(&[&[-1.0, 2.0, f64::NAN], &[0.0, -3.0, -0.0]]);
        let mut a = z.clone();
        a.relu_in_place();
        assert_eq!(a, Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[0.0, 0.0, 0.0]]));
        let g = Matrix::from_vec(2, 3, vec![10.0; 6]);
        let want = Matrix::from_rows(&[&[0.0, 10.0, 0.0], &[0.0, 0.0, 0.0]]);
        for activation in [&z, &a] {
            let mut back = g.clone();
            back.relu_mask(activation);
            assert_eq!(back, want);
        }
    }

    /// The `_into` forms ignore whatever a reused (larger, dirty) buffer
    /// held.
    #[test]
    fn into_forms_overwrite_a_reused_buffer() {
        let z = Matrix::from_rows(&[&[-1.0, 2.0, 0.0], &[4.0, -0.0, -3.0]]);
        let mut out = Matrix::from_vec(5, 4, vec![f64::NAN; 20]);
        z.transpose_into(&mut out);
        assert_eq!(out, Matrix::from_rows(&[&[-1.0, 4.0], &[2.0, -0.0], &[0.0, -3.0]]));
        z.sum_rows_into(&mut out);
        assert_eq!(out, Matrix::from_rows(&[&[3.0, 2.0, -3.0]]));
    }

    #[test]
    fn sum_rows_pools() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.sum_rows(), Matrix::from_rows(&[&[9.0, 12.0]]));
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = Matrix::xavier(20, 30, &mut rng);
        let bound = (6.0 / 50.0f64).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= bound));
        assert!(m.data().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn sparse_matches_dense() {
        // A = [[0, 2], [1, 0]]; X = [[1, 1], [2, 3]].
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]);
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 3.0]]);
        let mut a_x = Matrix::zeros(0, 0);
        a.matmul_into(&x, &mut a_x).expect("shapes agree");
        assert_eq!(a_x, Matrix::from_rows(&[&[4.0, 6.0], &[1.0, 1.0]]));
        // Aᵀ X = [[0,1],[2,0]] * X = [[2,3],[2,2]].
        let mut at_x = Matrix::zeros(0, 0);
        a.matmul_transposed_into(&x, &mut at_x).expect("shapes agree");
        assert_eq!(at_x, Matrix::from_rows(&[&[2.0, 3.0], &[2.0, 2.0]]));
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut Matrix::zeros(0, 0));
    }

    #[test]
    #[should_panic(expected = "sorted by row")]
    fn unsorted_triplets_panic() {
        let _ = SparseMatrix::from_triplets(2, 2, &[(1, 0, 1.0), (0, 1, 1.0)]);
    }

    /// Regression: a CSR entry whose column index points outside the
    /// matrix (a deserialized or hand-built operand — `from_triplets`
    /// rejects it up front) used to index the dense operand silently
    /// out of bounds; now it is a typed error.
    #[test]
    fn out_of_range_column_is_a_typed_error() {
        let corrupt = SparseMatrix {
            rows: 2,
            cols: 2,
            offsets: vec![0, 1, 2],
            indices: vec![0, 2], // column 2 in a 2-column matrix
            values: vec![1.0, 1.0],
        };
        let x = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(0, 0);
        assert_eq!(
            corrupt.matmul_into(&x, &mut out),
            Err(GcnError::ColumnOutOfRange {
                row: 1,
                col: 2,
                cols: 2
            })
        );
    }

    /// Regression: an offset table overrunning the entry arrays used to
    /// panic on slicing; now it is a typed error naming the row.
    #[test]
    fn inconsistent_offsets_are_a_typed_error() {
        let corrupt = SparseMatrix {
            rows: 2,
            cols: 2,
            offsets: vec![0, 3, 4], // claims 4 entries, arrays hold 1
            indices: vec![0],
            values: vec![1.0],
        };
        let x = Matrix::zeros(2, 2);
        let mut out = Matrix::zeros(0, 0);
        assert_eq!(
            corrupt.matmul_into(&x, &mut out),
            Err(GcnError::CorruptSparse { row: 0 })
        );
    }

    #[test]
    fn entries_roundtrip_triplets() {
        let t = [(0u32, 1u32, 2.0f64), (1, 0, 1.0), (1, 1, 3.0)];
        let a = SparseMatrix::from_triplets(2, 2, &t);
        let got: Vec<(u32, u32, f64)> = a.entries().collect();
        assert_eq!(got, t);
    }
}
