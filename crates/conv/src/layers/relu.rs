//! Rectified linear unit.

use gcnn_tensor::Tensor4;
use rayon::prelude::*;

/// Elementwise `max(0, x)` with the standard subgradient backward pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReluLayer;

impl ReluLayer {
    /// Create a new instance.
    pub fn new() -> Self {
        ReluLayer
    }

    /// Forward pass: `y = max(0, x)`.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        self.forward_in_place(input.clone())
    }

    /// [`ReluLayer::forward`] in place, on an activation nothing else reads.
    pub fn forward_in_place(&self, mut x: Tensor4) -> Tensor4 {
        let data = x.as_mut_slice();
        data.par_iter_mut().for_each(|v| *v = v.max(0.0));
        x
    }

    /// Backward pass in place: `grad_out` passes where the *output* is
    /// positive. `y = max(0, x)` is positive exactly where `x` is (NaN
    /// clamps to 0), so this is [`ReluLayer::backward`] bit for bit for a
    /// caller that kept the output and not the input.
    pub fn backward_in_place(&self, output: &Tensor4, mut grad_out: Tensor4) -> Tensor4 {
        assert_eq!(
            output.shape(),
            grad_out.shape(),
            "ReluLayer::backward_in_place: shapes"
        );
        // On the caller: a memory stream gains nothing from a second core.
        for (g, &y) in grad_out.as_mut_slice().iter_mut().zip(output.as_slice()) {
            *g = if y > 0.0 { *g } else { 0.0 };
        }
        grad_out
    }

    /// Backward pass: gradient passes where the *input* was positive.
    pub fn backward(&self, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        assert_eq!(
            input.shape(),
            grad_out.shape(),
            "ReluLayer::backward: shapes"
        );
        let data: Vec<f32> = input
            .as_slice()
            .par_iter()
            .zip(grad_out.as_slice())
            .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
            .collect();
        Tensor4::from_vec(input.shape(), data).expect("relu preserves shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_tensor::Shape4;

    #[test]
    fn forward_clamps_negative() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![-1.0, 2.0, 0.0, -3.5]).unwrap();
        let y = ReluLayer.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_masks_by_input_sign() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![-1.0, 2.0, 0.0, 3.0]).unwrap();
        let g = Tensor4::full(x.shape(), 7.0);
        let gin = ReluLayer.backward(&x, &g);
        assert_eq!(gin.as_slice(), &[0.0, 7.0, 0.0, 7.0]);
    }

    /// Both forms give `max(0, x)` bit for bit on NaN, ±0 and ±Inf.
    #[test]
    fn in_place_matches_the_clamp_bit_for_bit() {
        let special = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -2.5,
            3.0,
        ];
        let x = Tensor4::from_vec(Shape4::new(1, 2, 2, 2), special.to_vec()).unwrap();
        let want: Vec<u32> = special.iter().map(|v| v.max(0.0).to_bits()).collect();
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ReluLayer.forward(&x)), want);
        assert_eq!(bits(&ReluLayer.forward_in_place(x)), want);
    }

    /// Masking by the output's sign in place gives the bits of masking by
    /// the input's, on NaN, ±0, ±Inf, negative and positive inputs.
    #[test]
    fn in_place_mask_matches_the_input_mask_bit_for_bit() {
        let special = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -2.5,
            3.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        let shape = Shape4::new(1, special.len(), 1, special.len());
        // Each input against a gradient of each kind, NaN and -0 included.
        let x: Vec<f32> = special.iter().flat_map(|&v| [v; 10]).collect();
        let g: Vec<f32> = (0..10).flat_map(|_| special).collect();
        let x = Tensor4::from_vec(shape, x).unwrap();
        let g = Tensor4::from_vec(shape, g).unwrap();
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = bits(&ReluLayer.backward(&x, &g));
        let y = ReluLayer.forward(&x);
        assert_eq!(bits(&ReluLayer.backward_in_place(&y, g)), want);
    }

    #[test]
    fn idempotent_on_nonnegative() {
        let x = Tensor4::from_fn(Shape4::new(2, 2, 3, 3), |n, c, h, w| (n + c + h + w) as f32);
        let y = ReluLayer.forward(&x);
        assert_eq!(y, x);
    }
}
