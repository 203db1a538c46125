//! The Adam optimizer.

use crate::Matrix;

/// Adam state for one parameter tensor.
///
/// Standard Adam (Kingma & Ba) with bias correction; the paper trains
/// its model with Adam at `lr = 1e-4`.
///
/// # Examples
///
/// ```
/// use eda_cloud_gcn::{Adam, Matrix};
///
/// let mut param = Matrix::from_rows(&[&[1.0]]);
/// let mut adam = Adam::new(1, 1);
/// // Gradient of f(x) = x^2 is 2x: repeated steps move toward 0.
/// for _ in 0..2000 {
///     let grad = Matrix::from_rows(&[&[2.0 * param.get(0, 0)]]);
///     adam.step(&mut param, &grad, 1e-2);
/// }
/// assert!(param.get(0, 0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    m: Matrix,
    v: Matrix,
    t: u64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
}

impl Adam {
    /// Fresh optimizer state for a `rows x cols` parameter.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }

    /// Apply one update to `param` given its gradient.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the state.
    pub fn step(&mut self, param: &mut Matrix, grad: &Matrix, lr: f64) {
        assert_eq!(
            (param.rows(), param.cols()),
            (self.m.rows(), self.m.cols()),
            "parameter shape mismatch"
        );
        assert_eq!(
            (grad.rows(), grad.cols()),
            (self.m.rows(), self.m.cols()),
            "gradient shape mismatch"
        );
        self.t += 1;
        // Past `i32::MAX` steps both powers are 0.0 either way; saturate
        // instead of wrapping to a negative exponent.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let b1t = 1.0 - self.beta1.powi(t);
        let b2t = 1.0 - self.beta2.powi(t);
        let (m, v) = (self.m.data_mut(), self.v.data_mut());
        for ((p, &g), (m, v)) in param
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let mut p = Matrix::from_rows(&[&[5.0, -3.0]]);
        let mut adam = Adam::new(1, 2);
        for _ in 0..5000 {
            let grad = Matrix::from_rows(&[&[2.0 * p.get(0, 0), 2.0 * p.get(0, 1)]]);
            adam.step(&mut p, &grad, 5e-3);
        }
        assert!(p.get(0, 0).abs() < 0.01, "{}", p.get(0, 0));
        assert!(p.get(0, 1).abs() < 0.01, "{}", p.get(0, 1));
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // With bias correction, the first Adam step is ~lr in the
        // gradient direction regardless of gradient magnitude.
        let mut p = Matrix::from_rows(&[&[0.0]]);
        let mut adam = Adam::new(1, 1);
        adam.step(&mut p, &Matrix::from_rows(&[&[1234.0]]), 0.01);
        assert!((p.get(0, 0) + 0.01).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut p = Matrix::zeros(2, 2);
        let mut adam = Adam::new(1, 1);
        adam.step(&mut p, &Matrix::zeros(2, 2), 0.1);
    }
}
