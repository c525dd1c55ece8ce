//! Shape bookkeeping for dense NCHW tensors.

use crate::{Result, TensorError};

/// The shape of a dense tensor.
///
/// Shapes are stored as a small vector of dimension sizes, outermost first.
/// Most tensors in this workspace are 4-D `(N, C, H, W)` activations or
/// `(OutC, InC, KH, KW)` convolution kernels, but 1-D bias vectors and 2-D
/// matrices are also used, so the dimensionality is not fixed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Create a shape from a list of dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Shape of a 4-D activation tensor `(n, c, h, w)`.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape {
            dims: vec![n, c, h, w],
        }
    }

    /// Shape of a 2-D matrix `(rows, cols)`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape {
            dims: vec![rows, cols],
        }
    }

    /// Shape of a 1-D vector of length `len`.
    pub fn vector(len: usize) -> Self {
        Shape { dims: vec![len] }
    }

    /// Dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Interpret this shape as `(N, C, H, W)`.
    ///
    /// Returns an error if the shape is not 4-D.
    pub fn as_nchw(&self) -> Result<(usize, usize, usize, usize)> {
        if self.dims.len() != 4 {
            return Err(TensorError::ShapeMismatch {
                op: "as_nchw",
                lhs: self.dims.clone(),
                rhs: vec![0, 0, 0, 0],
            });
        }
        Ok((self.dims[0], self.dims[1], self.dims[2], self.dims[3]))
    }

    /// Interpret this shape as a 2-D matrix `(rows, cols)`.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        if self.dims.len() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "as_matrix",
                lhs: self.dims.clone(),
                rhs: vec![0, 0],
            });
        }
        Ok((self.dims[0], self.dims[1]))
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// Returns an error if the index rank differs from the shape rank or any
    /// coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() {
            return Err(TensorError::ShapeMismatch {
                op: "offset",
                lhs: self.dims.clone(),
                rhs: index.to_vec(),
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (i, (&ix, &dim)) in index.iter().zip(self.dims.iter()).enumerate() {
            if ix >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: ix,
                    len: dim,
                });
            }
            off += ix * strides[i];
        }
        Ok(off)
    }

    /// True if both shapes have identical dimensions.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.numel(), 120);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.dim(2), 4);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
        let v = Shape::vector(7);
        assert_eq!(v.strides(), vec![1]);
    }

    #[test]
    fn offset_computation() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.offset(&[0, 0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3, 4]).unwrap(), 119);
        assert_eq!(s.offset(&[0, 1, 0, 2]).unwrap(), 22);
    }

    #[test]
    fn offset_out_of_bounds() {
        let s = Shape::matrix(2, 3);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    fn as_nchw_rejects_wrong_rank() {
        assert!(Shape::matrix(2, 3).as_nchw().is_err());
        assert!(Shape::nchw(1, 1, 1, 1).as_nchw().is_ok());
    }

    #[test]
    fn conversions() {
        let s: Shape = vec![1, 2, 3].into();
        assert_eq!(s.dims(), &[1, 2, 3]);
        let s2: Shape = (&[4usize, 5][..]).into();
        assert_eq!(s2.as_matrix().unwrap(), (4, 5));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::matrix(2, 3).to_string(), "[2, 3]");
    }
}
