//! Fully-connected (inner-product) layer.
//!
//! Flattens each image to a vector and applies `y = W·x + b`. The three
//! FC layers at the tail of AlexNet/VGG/OverFeat (paper §I) are instances
//! of this; their compute is one SGEMM per mini-batch.

use gcnn_gemm::{sgemm, Transpose};
use gcnn_tensor::{Matrix, Shape4, Tensor4};

/// A fully-connected layer with weights `(out_features × in_features)`
/// and a bias vector.
#[derive(Debug, Clone)]
pub struct FcLayer {
    /// Weight matrix, row-major `(out_features, in_features)`.
    pub weights: Matrix,
    /// Bias, length `out_features`.
    pub bias: Vec<f32>,
}

/// Gradients produced by [`FcLayer::backward`].
pub struct FcGradients {
    /// Gradient w.r.t. the input, shaped like the forward input.
    pub grad_input: Tensor4,
    /// Gradient w.r.t. the weights.
    pub grad_weights: Matrix,
    /// Gradient w.r.t. the bias.
    pub grad_bias: Vec<f32>,
}

impl FcLayer {
    /// Construct with explicit parameters.
    pub fn new(weights: Matrix, bias: Vec<f32>) -> Self {
        assert_eq!(weights.rows(), bias.len(), "FcLayer: bias length");
        FcLayer { weights, bias }
    }

    /// Construct with Xavier-initialized weights and zero bias.
    pub fn xavier(out_features: usize, in_features: usize, seed: u64) -> Self {
        let bound = (6.0 / (in_features + out_features) as f32).sqrt();
        let weights =
            gcnn_tensor::init::uniform_matrix(out_features, in_features, -bound, bound, seed);
        FcLayer {
            weights,
            bias: vec![0.0; out_features],
        }
    }

    /// Input features consumed per image.
    pub fn in_features(&self) -> usize {
        self.weights.cols()
    }

    /// Output features produced per image.
    pub fn out_features(&self) -> usize {
        self.weights.rows()
    }

    /// Forward pass. The input may be any 4-D shape whose per-image
    /// volume equals `in_features`; output is `(b, out_features, 1, 1)`.
    ///
    /// Computed as one batch GEMM: `Y(b × out) = X(b × in) · Wᵀ`.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let in_f = self.in_features();
        assert_eq!(s.image_len(), in_f, "FcLayer::forward: input volume");
        let out_f = self.out_features();

        let mut out = Tensor4::zeros(Shape4::new(s.n, out_f, 1, 1));
        sgemm(
            Transpose::No,
            Transpose::Yes,
            s.n,
            out_f,
            in_f,
            1.0,
            input.as_slice(),
            in_f,
            self.weights.as_slice(),
            in_f,
            0.0,
            out.as_mut_slice(),
            out_f,
        );
        for n in 0..s.n {
            let row = &mut out.as_mut_slice()[n * out_f..(n + 1) * out_f];
            gcnn_tensor::simd::add_assign(row, &self.bias);
        }
        out
    }

    /// Backward pass.
    pub fn backward(&self, input: &Tensor4, grad_out: &Tensor4) -> FcGradients {
        let s = input.shape();
        let (in_f, out_f) = (self.in_features(), self.out_features());
        assert_eq!(
            grad_out.shape(),
            Shape4::new(s.n, out_f, 1, 1),
            "FcLayer::backward: grad shape"
        );

        // dX(b × in) = dY(b × out) · W(out × in)
        let mut grad_input = Tensor4::zeros(s);
        sgemm(
            Transpose::No,
            Transpose::No,
            s.n,
            in_f,
            out_f,
            1.0,
            grad_out.as_slice(),
            out_f,
            self.weights.as_slice(),
            in_f,
            0.0,
            grad_input.as_mut_slice(),
            in_f,
        );

        // dW(out × in) = dYᵀ(out × b) · X(b × in)
        let mut grad_weights = Matrix::zeros(out_f, in_f);
        sgemm(
            Transpose::Yes,
            Transpose::No,
            out_f,
            in_f,
            s.n,
            1.0,
            grad_out.as_slice(),
            out_f,
            input.as_slice(),
            in_f,
            0.0,
            grad_weights.as_mut_slice(),
            in_f,
        );

        // db = column sums of dY.
        let mut grad_bias = vec![0.0f32; out_f];
        for n in 0..s.n {
            for (o, gb) in grad_bias.iter_mut().enumerate() {
                *gb += grad_out.get(n, o, 0, 0);
            }
        }

        FcGradients {
            grad_input,
            grad_weights,
            grad_bias,
        }
    }

    /// SGD update: `θ ← θ − lr·∇θ`.
    pub fn sgd_step(&mut self, grads: &FcGradients, lr: f32) {
        for (w, g) in self
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(grads.grad_weights.as_slice())
        {
            *w -= lr * g;
        }
        for (b, g) in self.bias.iter_mut().zip(&grads.grad_bias) {
            *b -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_2x3() -> FcLayer {
        // W = [[1,0,2],[0,1,-1]], b = [0.5, -0.5]
        FcLayer::new(
            Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, -1.0]).unwrap(),
            vec![0.5, -0.5],
        )
    }

    #[test]
    fn forward_known_values() {
        let layer = layer_2x3();
        let x = Tensor4::from_vec(Shape4::new(1, 3, 1, 1), vec![1.0, 2.0, 3.0]).unwrap();
        let y = layer.forward(&x);
        // [1 + 6 + 0.5, 2 - 3 - 0.5] = [7.5, -1.5]
        assert_eq!(y.as_slice(), &[7.5, -1.5]);
    }

    #[test]
    fn forward_accepts_spatial_input() {
        // (1, 3, 1, 1) and (1, 1, 3, 1) flatten identically.
        let layer = layer_2x3();
        let a = Tensor4::from_vec(Shape4::new(1, 3, 1, 1), vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor4::from_vec(Shape4::new(1, 1, 3, 1), vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(layer.forward(&a).as_slice(), layer.forward(&b).as_slice());
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut layer = FcLayer::xavier(4, 6, 7);
        let x = gcnn_tensor::init::uniform_tensor(Shape4::new(3, 6, 1, 1), -1.0, 1.0, 8);
        let g = gcnn_tensor::init::uniform_tensor(Shape4::new(3, 4, 1, 1), -1.0, 1.0, 9);
        let grads = layer.backward(&x, &g);

        // Scalar objective L = <forward(x), g>; check dL/dw numerically.
        let eps = 1e-2;
        let loss = |l: &FcLayer| -> f32 {
            l.forward(&x)
                .as_slice()
                .iter()
                .zip(g.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        for idx in [0usize, 5, 11, 23] {
            let orig = layer.weights.as_slice()[idx];
            layer.weights.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&layer);
            layer.weights.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&layer);
            layer.weights.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.grad_weights.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2 * analytic.abs().max(1.0),
                "w[{idx}]: numeric {numeric} analytic {analytic}"
            );
        }

        // Bias gradient: dL/db_o = Σ_n g[n, o].
        for o in 0..4 {
            let expect: f32 = (0..3).map(|n| g.get(n, o, 0, 0)).sum();
            assert!((grads.grad_bias[o] - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn grad_input_is_adjoint() {
        let layer = FcLayer::xavier(5, 8, 17);
        let x = gcnn_tensor::init::uniform_tensor(Shape4::new(2, 8, 1, 1), -1.0, 1.0, 18);
        let g = gcnn_tensor::init::uniform_tensor(Shape4::new(2, 5, 1, 1), -1.0, 1.0, 19);
        let y = layer.forward(&x);
        let grads = layer.backward(&x, &g);

        // Remove the bias contribution: <y, g> = <Wx, g> + <b, Σg>.
        let bias_term: f32 = (0..2)
            .map(|n| {
                (0..5)
                    .map(|o| layer.bias[o] * g.get(n, o, 0, 0))
                    .sum::<f32>()
            })
            .sum();
        let lhs: f32 = y
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum::<f32>()
            - bias_term;
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(grads.grad_input.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut layer = layer_2x3();
        let x = Tensor4::full(Shape4::new(1, 3, 1, 1), 1.0);
        let g = Tensor4::full(Shape4::new(1, 2, 1, 1), 1.0);
        let grads = layer.backward(&x, &g);
        let w0 = layer.weights.get(0, 0);
        layer.sgd_step(&grads, 0.1);
        assert!(layer.weights.get(0, 0) < w0);
        assert!((layer.bias[0] - 0.4).abs() < 1e-6);
    }
}
