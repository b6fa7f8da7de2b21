//! Eager tensor operations: matmul, elementwise math, reductions, softmax.
//!
//! Shape-checked entry points return [`Result`]; the hot inner loops are
//! plain slice arithmetic so the compiler can vectorize them.

use crate::gemm::{gemm, View};
use crate::tensor::{Tensor, TensorError};

impl Tensor {
    /// Matrix-multiplies two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// All three matmul forms share one packed, register-blocked kernel
    /// (see the `gemm` module). Each output element sums its `k` products
    /// in ascending order from `+0.0`, so the result is bit-identical to
    /// the textbook loop on finite inputs; `0 × ∞` yields NaN.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2("matmul", self, rhs)?;
        if !self.shape().matmul_compatible(rhs.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let n = rhs.dims()[1];
        let out = gemm(View::rows(self.data(), m, k), View::rows(rhs.data(), k, n));
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix-multiplies `self` by the transpose of `rhs`:
    /// `[m, k] x [n, k]^T -> [m, n]`.
    pub fn matmul_t(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2("matmul_t", self, rhs)?;
        if self.dims()[1] != rhs.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let n = rhs.dims()[0];
        let out = gemm(
            View::rows(self.data(), m, k),
            View::transposed(rhs.data(), n, k),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Multiplies the transpose of `self` by `rhs`:
    /// `[k, m]^T x [k, n] -> [m, n]`.
    ///
    /// This is the shape needed for weight gradients (`x^T · dy`).
    pub fn t_matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2("t_matmul", self, rhs)?;
        if self.dims()[0] != rhs.dims()[0] {
            return Err(TensorError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let n = rhs.dims()[1];
        let out = gemm(
            View::transposed(self.data(), k, m),
            View::rows(rhs.data(), k, n),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Returns the transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for (i, row) in rows(self.data(), n).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out[j * m + i] = v;
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Elementwise addition; shapes must match exactly.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise subtraction; shapes must match exactly.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; shapes must match exactly.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// In-place elementwise addition; shapes must match exactly.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<(), TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(rhs.data().iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Returns a copy scaled by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Scales every element in place by `s`.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.dims()).expect("map preserves element count")
    }

    /// Adds a rank-1 bias `[n]` to every row of a rank-2 tensor `[m, n]`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || bias.rank() != 1 || self.dims()[1] != bias.dims()[0] {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape().clone(),
                rhs: bias.shape().clone(),
            });
        }
        let mut out = self.data().to_vec();
        for row in out.chunks_exact_mut(bias.numel().max(1)) {
            for (o, &b) in row.iter_mut().zip(bias.data()) {
                *o += b;
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Sums all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements; returns 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Sums a rank-2 tensor over its rows, producing a rank-1 `[n]` tensor.
    ///
    /// This is the bias-gradient reduction (`sum over the batch dimension`).
    pub fn sum_rows(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let n = self.dims()[1];
        let mut out = vec![0.0f32; n];
        for row in rows(self.data(), n) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Row-wise softmax over the last dimension of a rank-2 tensor.
    ///
    /// Numerically stabilized by subtracting the per-row maximum.
    pub fn softmax_rows(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = self.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for j in 0..n {
                out[i * n + j] /= denom;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Returns the per-row index of the maximum element of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let m = self.dims()[0];
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = self.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Returns the Frobenius norm (L2 norm of the flattened data).
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let data = self
            .data()
            .iter()
            .zip(rhs.data().iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }
}

/// Rejects any operand of a matmul form that is not rank 2.
fn check_rank2(op: &'static str, lhs: &Tensor, rhs: &Tensor) -> Result<(), TensorError> {
    for t in [lhs, rhs] {
        if t.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: t.rank(),
            });
        }
    }
    Ok(())
}

/// The `n`-wide rows of a row-major buffer (none when `n == 0`).
fn rows(data: &[f32], n: usize) -> std::slice::ChunksExact<'_, f32> {
    data.chunks_exact(n.max(1))
}

/// GELU activation (tanh approximation), elementwise.
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`] with respect to its input.
pub fn gelu_grad(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + 0.044_715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// ReLU activation, elementwise.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of [`relu`]; uses the subgradient 0 at the kink.
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    #[test]
    fn matmul_small_known_result() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t2(&[1.0; 6], 2, 3);
        let b = t2(&[1.0; 4], 2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::arange(3);
        assert!(matches!(
            v.matmul(&b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(
            &[1.0, 0.0, 2.0, -1.0, 0.5, 3.0, 1.0, 1.0, 2.0, 0.0, -2.0, 4.0],
            4,
            3,
        );
        let direct = a.matmul_t(&b).unwrap();
        let via_transpose = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(direct.data(), via_transpose.data());
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = t2(&[1.0, -1.0, 0.5, 2.0, 3.0, 0.0], 3, 2);
        let direct = a.t_matmul(&b).unwrap();
        let via_transpose = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(direct.data(), via_transpose.data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t2(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], 2, 3);
        let s = a.softmax_rows().unwrap();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
        // A huge constant row must not overflow and stays uniform.
        for &v in s.row(1) {
            assert!((v - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sum_rows_reduces_batch_dimension() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let s = a.sum_rows().unwrap();
        assert_eq!(s.data(), &[4.0, 6.0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_per_row() {
        let a = t2(&[0.0, 0.0, 1.0, 1.0], 2, 2);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let c = a.add_row_broadcast(&b).unwrap();
        assert_eq!(c.data(), &[10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = t2(&[0.1, 0.9, 0.0, 5.0, -5.0, 2.0], 2, 3);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: analytic {} vs fd {}",
                gelu_grad(x),
                fd
            );
        }
    }

    #[test]
    fn elementwise_ops_check_shapes() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a
            .mul(&Tensor::full(&[2, 2], 3.0))
            .unwrap()
            .data()
            .iter()
            .all(|&v| v == 3.0));
        assert_eq!(a.sub(&a).unwrap().sum(), 0.0);
    }
}
