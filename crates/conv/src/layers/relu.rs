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

    #[test]
    fn idempotent_on_nonnegative() {
        let x = Tensor4::from_fn(Shape4::new(2, 2, 3, 3), |n, c, h, w| (n + c + h + w) as f32);
        let y = ReluLayer.forward(&x);
        assert_eq!(y, x);
    }
}
