//! Descriptor subsystem acceptance tests:
//!
//! * golden-file round trip — the shipped `k40c.toml` must reproduce
//!   the hard-coded [`DeviceSpec::k40c`] field-for-field, so the text
//!   format cannot drift from the constructor the paper's figures were
//!   validated on;
//! * Maxwell validation — the `gm204.toml` descriptor must reproduce
//!   maxDNN's (arXiv:1501.06633) published platform numbers: 4612
//!   GFLOP/s peak, and 25 % register-limited occupancy for the
//!   Maxas-derived 256-thread / 128-register convolution kernel,
//!   within 5 %;
//! * malformed-input error paths, including property tests over
//!   randomly corrupted descriptor fixtures: corruption must surface
//!   as a typed [`DescriptorError`], never as a silently-absurd spec.

use gcnn_gpusim::descriptor::{
    parse_descriptor, DescriptorError, GM204_DESCRIPTOR, K40C_DESCRIPTOR,
};
use gcnn_gpusim::{occupancy, DeviceSpec, OccupancyLimiter};
use proptest::prelude::*;

#[test]
fn k40c_descriptor_round_trips_field_for_field() {
    let parsed = parse_descriptor(K40C_DESCRIPTOR).expect("golden descriptor parses");
    let golden = DeviceSpec::k40c();
    // PartialEq covers every field, but assert a few individually so a
    // mismatch names the field instead of dumping two structs.
    assert_eq!(parsed.name, golden.name);
    assert_eq!(parsed.sm_count, golden.sm_count);
    assert_eq!(parsed.registers_per_sm, golden.registers_per_sm);
    assert_eq!(parsed.shared_mem_per_sm, golden.shared_mem_per_sm);
    assert_eq!(parsed.global_mem_bytes, golden.global_mem_bytes);
    assert!((parsed.mem_bandwidth_gbs - golden.mem_bandwidth_gbs).abs() < f64::EPSILON);
    assert_eq!(parsed, golden);
}

#[test]
fn gm204_descriptor_round_trips_through_the_shorthand() {
    let parsed = parse_descriptor(GM204_DESCRIPTOR).expect("gm204 descriptor parses");
    assert_eq!(parsed, DeviceSpec::gm204());
    parsed.validate().expect("shipped descriptor validates");
}

/// maxDNN's platform headline: "the GTX980 has a peak of 4612 GFLOPS".
#[test]
fn gm204_peak_flops_matches_maxdnn() {
    let gm204 = DeviceSpec::gm204();
    let gflops = gm204.peak_flops() / 1e9;
    assert!(
        (gflops - 4612.0).abs() / 4612.0 < 0.05,
        "GM204 peak {gflops} GFLOP/s drifted from maxDNN's published 4612"
    );
}

/// maxDNN's convolution kernel inherits the Maxas SGEMM shape: 256
/// threads per block at 128 registers per thread. On GM204's 64 K
/// register file that admits 65536/4096 = 16 warps -> 2 resident
/// 8-warp blocks -> 25 % theoretical occupancy, register-limited —
/// the published low-occupancy / high-ILP operating point the paper
/// reports 96.3 % computational efficiency at. The occupancy model
/// must land within 5 % of that figure.
#[test]
fn gm204_occupancy_matches_maxdnn_within_5_percent() {
    const MAXDNN_PUBLISHED_OCCUPANCY: f64 = 0.25;
    let gm204 = DeviceSpec::gm204();
    let occ = occupancy(&gm204, 128, 0, 256);
    assert_eq!(occ.limiter, OccupancyLimiter::Registers);
    assert_eq!(occ.blocks_per_sm, 2);
    assert_eq!(occ.active_warps, 16);
    let rel_err = (occ.theoretical - MAXDNN_PUBLISHED_OCCUPANCY).abs() / MAXDNN_PUBLISHED_OCCUPANCY;
    assert!(
        rel_err < 0.05,
        "model occupancy {} vs maxDNN published {MAXDNN_PUBLISHED_OCCUPANCY} (rel err {rel_err})",
        occ.theoretical
    );
}

/// Maxwell raised the resident-block cap to 32: a tiny-block kernel
/// that was block-limited at 16 on Kepler doubles its residency.
#[test]
fn gm204_block_cap_doubles_keplers() {
    let occ_kepler = occupancy(&DeviceSpec::k40c(), 8, 0, 32);
    let occ_maxwell = occupancy(&DeviceSpec::gm204(), 8, 0, 32);
    assert_eq!(occ_kepler.blocks_per_sm, 16);
    assert_eq!(occ_maxwell.blocks_per_sm, 32);
}

#[test]
fn validator_rejects_inconsistent_specs() {
    let mut spec = DeviceSpec::k40c();
    spec.shared_mem_per_block = spec.shared_mem_per_sm + 1;
    let violations = spec.validate().unwrap_err();
    assert!(
        violations
            .iter()
            .any(|m| m.contains("shared_mem_per_block")),
        "{violations:?}"
    );

    let mut spec = DeviceSpec::k40c();
    spec.max_threads_per_block = 4096; // above max_threads_per_sm
    assert!(spec.validate().is_err());

    let mut spec = DeviceSpec::k40c();
    spec.mem_bandwidth_gbs = 0.0;
    assert!(spec.validate().is_err());

    let mut spec = DeviceSpec::k40c();
    spec.mem_bandwidth_gbs = f64::NAN;
    assert!(spec.validate().is_err());

    let mut spec = DeviceSpec::k40c();
    spec.registers_per_sm = 1024; // cannot hold one 255-register warp
    assert!(spec.validate().is_err());
}

#[test]
fn validator_reports_every_violation_not_just_the_first() {
    let mut spec = DeviceSpec::k40c();
    spec.sm_count = 0;
    spec.warp_size = 0;
    spec.mem_bandwidth_gbs = -1.0;
    let violations = spec.validate().unwrap_err();
    assert!(violations.len() >= 3, "{violations:?}");
}

// ---------------------------------------------------------------------------
// Property tests: corrupt descriptor fixtures
// ---------------------------------------------------------------------------

/// Zeroing any numeric field of a valid descriptor must yield a typed
/// error (missing/invalid/bad-value), never an accepted spec: every
/// numeric field of the schema is load-bearing for some model.
fn corrupt_numeric_line(descriptor: &str, line_idx: usize, replacement: &str) -> String {
    descriptor
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == line_idx {
                let key = l.split('=').next().unwrap_or("").trim();
                format!("{key} = {replacement}")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Indices of assignment lines carrying numeric values.
fn numeric_line_indices(descriptor: &str) -> Vec<usize> {
    descriptor
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            !t.starts_with('#') && t.contains('=') && !t.contains('"')
        })
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #[test]
    fn corrupting_any_numeric_field_to_zero_is_rejected(
        pick in 0usize..22,
        descriptor_choice in 0usize..2,
    ) {
        let descriptor = if descriptor_choice == 0 { K40C_DESCRIPTOR } else { GM204_DESCRIPTOR };
        let lines = numeric_line_indices(descriptor);
        let idx = lines[pick % lines.len()];
        let corrupted = corrupt_numeric_line(descriptor, idx, "0");
        match parse_descriptor(&corrupted) {
            // Zero is invalid for every field except the two fixed
            // overheads, which legitimately may be zero.
            Ok(spec) => {
                prop_assert!(
                    descriptor.lines().nth(idx).unwrap().contains("_us"),
                    "zeroed `{}` was accepted",
                    descriptor.lines().nth(idx).unwrap()
                );
                prop_assert!(spec.validate().is_ok());
            }
            Err(DescriptorError::Invalid(v)) => prop_assert!(!v.is_empty()),
            Err(_) => {}
        }
    }

    #[test]
    fn corrupting_any_numeric_field_to_garbage_is_rejected(
        pick in 0usize..22,
        garbage_pick in 0usize..6,
    ) {
        const GARBAGE: [&str; 6] = ["xyzzy", "-", "12abc", "1.2.3", "0x10", "NaNarama"];
        let garbage = GARBAGE[garbage_pick];
        let lines = numeric_line_indices(K40C_DESCRIPTOR);
        let idx = lines[pick % lines.len()];
        let corrupted = corrupt_numeric_line(K40C_DESCRIPTOR, idx, garbage);
        prop_assert!(
            matches!(parse_descriptor(&corrupted), Err(DescriptorError::BadValue { .. })),
            "garbage value `{garbage}` must be a BadValue error"
        );
    }

    #[test]
    fn deleting_any_assignment_reports_it_missing(pick in 0usize..23) {
        let lines: Vec<usize> = K40C_DESCRIPTOR
            .lines()
            .enumerate()
            .filter(|(_, l)| {
                let t = l.trim();
                !t.starts_with('#') && t.contains('=')
            })
            .map(|(i, _)| i)
            .collect();
        let idx = lines[pick % lines.len()];
        let text = K40C_DESCRIPTOR
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, l)| l)
            .collect::<Vec<_>>()
            .join("\n");
        let key = K40C_DESCRIPTOR
            .lines()
            .nth(idx)
            .unwrap()
            .split('=')
            .next()
            .unwrap()
            .trim()
            .to_string();
        match parse_descriptor(&text) {
            Err(DescriptorError::MissingKeys(keys)) => prop_assert_eq!(keys, vec![key]),
            other => prop_assert!(false, "expected MissingKeys for `{}`, got {:?}", key, other),
        }
    }

    #[test]
    fn truncated_descriptors_never_panic_or_validate(cut in 1usize..600) {
        let text: String = K40C_DESCRIPTOR.chars().take(cut).collect();
        // Any prefix must either fail cleanly or — when the cut lands
        // exactly on a line boundary early enough — report missing keys.
        if let Ok(spec) = parse_descriptor(&text) {
            // Only the full descriptor has all 24 keys.
            prop_assert_eq!(spec, DeviceSpec::k40c());
        }
    }
}
