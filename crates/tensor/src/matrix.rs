//! Row-major dense `f32` matrix, and a borrowed view of a block of its
//! rows.

use std::fmt;
use std::ops::Range;

/// A dense, row-major matrix of `f32` values.
///
/// Row-major layout matches the "input matrix" the ModelJoin operator packs
/// column vectors into (paper Fig. 7): element `(r, c)` lives at
/// `data[r * cols + c]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a row-major buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes (used by the GPU transfer model).
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole matrix as a [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView { rows: self.rows, cols: self.cols, data: &self.data }
    }

    /// Rows `rows` as a [`MatrixView`], without a copy.
    pub fn row_block(&self, rows: Range<usize>) -> MatrixView<'_> {
        let data = &self.data[rows.start * self.cols..rows.end * self.cols];
        MatrixView { rows: rows.len(), cols: self.cols, data }
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole backing buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Copy column `c` into `out` (one value per row).
    pub fn copy_column(&self, c: usize, out: &mut [f32]) {
        assert!(c < self.cols);
        assert_eq!(out.len(), self.rows);
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.data[r * self.cols + c];
        }
    }

    /// Overwrite column `c` from `src` (one value per row).
    pub fn set_column(&mut self, c: usize, src: &[f32]) {
        assert!(c < self.cols);
        assert_eq!(src.len(), self.rows);
        for (r, v) in src.iter().enumerate() {
            self.data[r * self.cols + c] = *v;
        }
    }

    /// Out-of-place transpose.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Allocated capacity of the backing buffer, in elements.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reshape in place to `rows x cols`, reusing the backing allocation
    /// when it is large enough, and zero-fill. This is what lets operator
    /// scratch matrices survive batch-size changes (e.g. a short final
    /// vector) without reallocating every batch.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.data.clear();
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshape in place to `rows x cols`, reusing the backing allocation
    /// like [`Matrix::resize_zeroed`] but without zero-filling: the values
    /// are whatever the buffer held (zeros where it grew). For outputs a
    /// kernel overwrites entirely.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Maximum absolute element-wise difference to `other`.
    /// Panics on shape mismatch. Useful in tests comparing approaches.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// A borrowed row-major `rows x cols` matrix: a whole [`Matrix`] or a
/// block of its rows ([`Matrix::row_block`]). The GEMMs read their `A`
/// operand through it, so a caller can run a block of an input's rows
/// without copying them out.
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatrixView<'a> {
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The viewed rows' elements (row-major).
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Size of the viewed elements in bytes (used by the GPU transfer
    /// model).
    pub fn byte_len(&self) -> usize {
        std::mem::size_of_val(self.data)
    }
}

impl<'a> From<&'a Matrix> for MatrixView<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

/// The empty `0 x 0` matrix — the natural seed for capacity-reusing
/// scratch buffers (see [`Matrix::resize_zeroed`]).
impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "matrix buffer size mismatch")]
    fn from_vec_rejects_wrong_size() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn column_copy_and_set_round_trip() {
        let mut m = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
        let mut col = vec![0.0; 4];
        m.copy_column(1, &mut col);
        assert_eq!(col, vec![1.0, 2.0, 3.0, 4.0]);
        let new_col = vec![9.0, 8.0, 7.0, 6.0];
        m.set_column(1, &new_col);
        m.copy_column(1, &mut col);
        assert_eq!(col, new_col);
    }

    #[test]
    fn max_abs_diff_finds_largest_gap() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.5, 3.0, 3.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn resize_zeroed_reuses_capacity() {
        let mut m = Matrix::from_fn(8, 4, |r, c| (r + c) as f32 + 1.0);
        let cap = m.capacity();
        m.resize_zeroed(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.capacity(), cap, "shrinking must not reallocate");
        m.resize_zeroed(8, 4);
        assert_eq!(m.capacity(), cap, "regrowth within capacity must not reallocate");
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_block_views_rows_in_place() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let block = m.row_block(1..4);
        assert_eq!((block.rows(), block.cols()), (3, 3));
        assert_eq!(block.row(0), m.row(1));
        assert_eq!(block.as_slice(), &m.as_slice()[3..12]);
        assert_eq!(m.row_block(5..5).rows(), 0);
        assert_eq!(m.view().as_slice(), m.as_slice());
    }

    #[test]
    fn rows_are_contiguous_slices() {
        let mut m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        m.row_mut(0)[2] = 42.0;
        assert_eq!(m.get(0, 2), 42.0);
    }
}
