//! `ExecutionPlan::modeled_ms` is the profile's total without the
//! profile: at every shape the modeled figures time, on every device
//! preset they are swept over, it must give the bits of
//! `execute(dev, 1)?.total_ms()`, and fail where `execute` fails.

use gcnn_conv::ConvConfig;
use gcnn_core::paper_sweeps;
use gcnn_frameworks::{all_implementations, ExecutionPlan, PlannedKernel};
use gcnn_gpusim::{DeviceSpec, KernelDesc, LaunchConfig, Transfer, TransferDirection};
use gcnn_models::all_models;
use gcnn_models::layer::{walk, InstanceKind};

/// `modeled_ms` against the profile's total: equal bits, or both `Err`.
fn assert_same(plan: &ExecutionPlan, dev: &DeviceSpec, what: &str) {
    let modeled = plan.modeled_ms(dev).map(f64::to_bits);
    let profiled = plan.execute(dev, 1).map(|r| r.total_ms().to_bits());
    assert_eq!(modeled, profiled, "{what} on {}", dev.name);
}

/// Every point of the five Fig. 3 sweeps, then every conv layer of the
/// zoo at batches 32 and 128.
fn shapes() -> Vec<ConvConfig> {
    let mut shapes: Vec<_> = paper_sweeps()
        .iter()
        .flat_map(|s| s.configs().into_iter().map(|(_, cfg)| cfg))
        .collect();
    for model in all_models() {
        for batch in [32, 128] {
            let convs = walk(&model, batch).into_iter();
            shapes.extend(
                convs
                    .filter(|i| i.kind == InstanceKind::Conv)
                    .filter_map(|i| i.conv),
            );
        }
    }
    shapes
}

#[test]
fn modeled_ms_is_the_profiles_total_bit_for_bit() {
    let devices = [
        DeviceSpec::k40c(),
        DeviceSpec::k80_single_die(),
        DeviceSpec::titan_x_maxwell(),
    ];
    let (mut timed, mut oom) = (0, 0);
    for cfg in shapes() {
        for imp in all_implementations() {
            if imp.supports(&cfg).is_err() {
                continue;
            }
            let plan = imp.plan(&cfg);
            for dev in &devices {
                assert_same(&plan, dev, &format!("{} at {cfg}", imp.name()));
                match plan.modeled_ms(dev) {
                    Ok(_) => timed += 1,
                    Err(_) => oom += 1,
                }
            }
        }
    }
    // Both arms ran: some plans fit, and some (fbfft, Theano-fft at the
    // large sweep points) do not.
    assert!(
        timed > 1000 && oom > 0,
        "timed {timed}, out of memory {oom}"
    );
}

fn kernel(name: &str, flops: u64) -> KernelDesc {
    let mut k = KernelDesc::new(name, LaunchConfig::new(512, 256));
    k.flops = flops;
    k
}

/// The grouping rule's edge cases: a kernel launched zero times (first
/// and after its name was seen), two planned kernels sharing a name and
/// ordering the totals differently from the schedule, and an allocation
/// the device cannot hold.
#[test]
fn modeled_ms_matches_on_hand_built_plans() {
    let dev = DeviceSpec::k40c();
    let plan = ExecutionPlan {
        allocations: vec![("input".into(), 1000), ("output".into(), 2000)],
        transfers: vec![
            Transfer::sync(TransferDirection::HostToDevice, 1 << 20),
            Transfer::prefetched(TransferDirection::HostToDevice, 1 << 24),
            Transfer::sync(TransferDirection::DeviceToHost, 3 << 18),
        ],
        kernels: vec![
            PlannedKernel::times(kernel("never", 7_000_000_000), 0),
            PlannedKernel::times(kernel("small", 10_000_000), 3),
            PlannedKernel::times(kernel("gemm", 900_000_000), 5),
            PlannedKernel::times(kernel("small", 30_000_000), 7),
            PlannedKernel::times(kernel("gemm", 1), 0),
            PlannedKernel::once(kernel("gemm", 2_000_000_000)),
        ],
    };
    assert_same(&plan, &dev, "hand-built plan");
    let report = plan.execute(&dev, 1).unwrap();
    let names: Vec<_> = report.kernels.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(names, ["gemm", "small"]);

    let empty = ExecutionPlan::default();
    assert_same(&empty, &dev, "empty plan");
    assert_eq!(empty.modeled_ms(&dev), Ok(0.0));

    let mut huge = plan.clone();
    huge.allocations.push(("huge".into(), u64::MAX));
    assert_same(&huge, &dev, "u64::MAX allocation");
    let err = huge.modeled_ms(&dev).unwrap_err();
    assert_eq!((err.label.as_str(), err.in_use), ("huge", 3000));
}
