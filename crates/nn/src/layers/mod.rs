//! Neural-network layers with hand-derived backward passes.
//!
//! Every layer implements [`Layer`]: `forward` caches whatever the matching
//! `backward` needs, and `visit_params` exposes parameters to the optimizer in
//! a stable order. Batches of sequences are passed *stacked* as
//! `(batch * seq_len) x features` matrices; layers that need per-sample
//! structure (attention, LSTM) are constructed with the sequence length.

mod activation;
mod attention;
mod encoder;
mod ffn;
mod layernorm;
mod linear;
mod lstm;

pub use activation::{sigmoid as activation_sigmoid, Relu, Sigmoid};
pub use attention::{scaled_dot_product, Msa};
pub use encoder::EncoderBlock;
pub use ffn::Ffn;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use lstm::Lstm;

use crate::matrix::Matrix;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Gradient of the loss w.r.t. `value`, accumulated by `backward`.
    pub grad: Matrix,
}

impl Param {
    /// Wrap a value with a zeroed gradient of the same shape.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Common interface of all layers.
pub trait Layer {
    /// Compute the layer output for stacked input `x`.
    ///
    /// When `train` is true the layer caches intermediates for `backward`.
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix;

    /// Back-propagate `grad` (dL/d-output) and return dL/d-input,
    /// accumulating parameter gradients. Must follow a `forward` with
    /// `train = true` on the same batch.
    fn backward(&mut self, grad: &Matrix) -> Matrix;

    /// Visit all parameters in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Human-readable layer kind, used in diagnostics.
    fn name(&self) -> &'static str;

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Finite-difference gradient check helper used by layer unit tests.
///
/// Returns the maximum relative error between analytic and numeric
/// gradients of `loss(layer_output)` w.r.t. the input.
#[cfg(test)]
pub(crate) fn grad_check_input<L: Layer>(layer: &mut L, x: &Matrix, eps: f32) -> f32 {
    // Loss = sum of outputs (so dL/dy = 1 everywhere).
    let y = layer.forward(x, true);
    let ones = Matrix::full(y.rows(), y.cols(), 1.0);
    let analytic = layer.backward(&ones);

    let mut max_rel = 0.0f32;
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = xp.as_slice()[i];
        xp.as_mut_slice()[i] = orig + eps;
        let fp: f32 = layer.forward(&xp, false).as_slice().iter().sum();
        xp.as_mut_slice()[i] = orig - eps;
        let fm: f32 = layer.forward(&xp, false).as_slice().iter().sum();
        xp.as_mut_slice()[i] = orig;
        let numeric = (fp - fm) / (2.0 * eps);
        let a = analytic.as_slice()[i];
        let denom = a.abs().max(numeric.abs()).max(1e-3);
        max_rel = max_rel.max((a - numeric).abs() / denom);
    }
    max_rel
}
