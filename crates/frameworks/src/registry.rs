//! The registry of all seven implementations.

use crate::caffe::Caffe;
use crate::cuda_convnet2::CudaConvnet2;
use crate::cudnn::CuDnn;
use crate::fbfft::Fbfft;
use crate::theano_corrmm::TheanoCorrMM;
use crate::theano_fft::TheanoFft;
use crate::torch_cunn::TorchCunn;
use crate::ConvImplementation;

/// All seven implementations, in the paper's listing order (§III-B:
/// "We select Caffe, Torch-cunn, Theano-CorrMM, Theano-fft, cuDNN,
/// cuda-convnet2, and fbfft as representative implementations").
///
/// ```
/// use gcnn_conv::ConvConfig;
/// use gcnn_frameworks::all_implementations;
/// use gcnn_gpusim::DeviceSpec;
///
/// let cfg = ConvConfig::paper_base();
/// for imp in all_implementations() {
///     if imp.supports(&cfg).is_ok() {
///         let report = imp.plan(&cfg).execute(&DeviceSpec::k40c(), 1).unwrap();
///         assert!(report.total_ms() > 0.0);
///     }
/// }
/// ```
pub fn all_implementations() -> Vec<Box<dyn ConvImplementation>> {
    vec![
        Box::new(Caffe),
        Box::new(TorchCunn),
        Box::new(TheanoCorrMM),
        Box::new(TheanoFft),
        Box::new(CuDnn),
        Box::new(CudaConvnet2),
        Box::new(Fbfft),
    ]
}

/// Look up an implementation by its paper name (case-insensitive).
pub fn implementation_by_name(name: &str) -> Option<Box<dyn ConvImplementation>> {
    all_implementations()
        .into_iter()
        .find(|i| i.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_conv::Strategy;

    #[test]
    fn lookup_by_name() {
        assert!(implementation_by_name("fbfft").is_some());
        assert!(implementation_by_name("FBFFT").is_some());
        assert!(implementation_by_name("caffe2").is_none());
    }

    #[test]
    fn strategies_partition_as_in_paper() {
        // §II-B: direct = {cuda-convnet2}; unrolling = {Caffe,
        // Torch-cunn, Theano-CorrMM, cuDNN}; FFT = {fbfft, Theano-fft}.
        let mut direct = 0;
        let mut unroll = 0;
        let mut fft = 0;
        for imp in all_implementations() {
            match imp.strategy() {
                Strategy::Direct => direct += 1,
                Strategy::Unrolling => unroll += 1,
                Strategy::Fft => fft += 1,
            }
        }
        assert_eq!((direct, unroll, fft), (1, 4, 2));
    }

    #[test]
    fn table2_resources_match_paper() {
        let expect = [
            ("Caffe", 86, 8.5),
            ("cuDNN", 80, 8.4),
            ("Torch-cunn", 84, 8.1),
            ("Theano-CorrMM", 72, 7.0),
            ("cuda-convnet2", 116, 16.0),
            ("fbfft", 106, 10.0),
            ("Theano-fft", 2, 4.5),
        ];
        for (name, regs, smem) in expect {
            let imp = implementation_by_name(name).unwrap();
            let r = imp.resources();
            assert_eq!(r.registers, regs, "{name} registers");
            assert!((r.shared_kb - smem).abs() < 1e-6, "{name} shared memory");
        }
    }

    #[test]
    fn numerics_agree_across_all_implementations() {
        // Every framework's real algorithm must produce the same
        // forward result on a supported config.
        use gcnn_conv::ConvConfig;
        use gcnn_tensor::init::uniform_tensor;

        let cfg = ConvConfig::with_channels(32, 2, 8, 16, 3, 1);
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 70);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 71);
        let reference = gcnn_conv::reference::forward_ref(&cfg, &x, &w);

        for imp in all_implementations() {
            imp.supports(&cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", imp.name()));
            let out = gcnn_conv::algorithm_for(imp.strategy()).forward(&cfg, &x, &w);
            let dist = out.rel_l2_dist(&reference).unwrap();
            assert!(dist < 1e-3, "{}: rel l2 {dist}", imp.name());
        }
    }
}
