//! Data-driven device descriptors.
//!
//! [`DeviceSpec`] construction was originally hard-coded (one Rust
//! constructor per device); growing the simulator past the paper's
//! single K40c means new device generations must be *data*, not code.
//! This module parses a TOML-ish text format — `key = value` lines,
//! `#` comments, quoted strings, integers with optional `_` separators,
//! floats — using std only, per the workspace's no-new-deps rule.
//!
//! Every parsed spec passes [`DeviceSpec::validate`] before it is
//! returned, so a descriptor that types nonsense (zero SMs, a
//! per-block shared-memory limit above the per-SM capacity, negative
//! bandwidth) is a [`DescriptorError`], never a silently-absurd model.
//!
//! The shipped descriptors live under `crates/gpusim/descriptors/` and
//! are embedded at compile time as [`K40C_DESCRIPTOR`] and
//! [`GM204_DESCRIPTOR`].
//! `k40c` is the golden file — parsing it must equal
//! [`DeviceSpec::k40c`] field-for-field (a round-trip test pins this) —
//! and `gm204` is the Maxwell generation validated against maxDNN's
//! published occupancy/efficiency numbers (arXiv:1501.06633).

use crate::device::DeviceSpec;
use std::collections::BTreeMap;
use std::fmt;

/// The embedded Tesla K40c descriptor (the paper's platform).
pub const K40C_DESCRIPTOR: &str = include_str!("../descriptors/k40c.toml");

/// The embedded GTX 980 (Maxwell GM204) descriptor (maxDNN's platform).
pub const GM204_DESCRIPTOR: &str = include_str!("../descriptors/gm204.toml");

/// Why a descriptor failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DescriptorError {
    /// A line that is neither blank, a comment, nor `key = value`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The same key assigned twice.
    DuplicateKey {
        /// 1-based line number of the second assignment.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A key the schema does not know.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognized key.
        key: String,
    },
    /// A value that does not parse as its field's type.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value was rejected.
        key: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Required fields absent from the descriptor.
    MissingKeys(Vec<String>),
    /// The parsed spec violated a [`DeviceSpec::validate`] invariant.
    Invalid(Vec<String>),
}

impl fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptorError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
            DescriptorError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key `{key}`")
            }
            DescriptorError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key `{key}`")
            }
            DescriptorError::BadValue {
                line,
                key,
                expected,
            } => {
                write!(f, "line {line}: `{key}` expects {expected}")
            }
            DescriptorError::MissingKeys(keys) => {
                write!(f, "missing required keys: {}", keys.join(", "))
            }
            DescriptorError::Invalid(violations) => {
                write!(
                    f,
                    "descriptor violates invariants: {}",
                    violations.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for DescriptorError {}

/// One parsed `key = value` assignment, pre-typing.
enum RawValue {
    /// A quoted string.
    Str(String),
    /// A bare numeric token (typed per-field as u32/u64/f64 later).
    Num(String),
}

/// Split descriptor text into `key -> (line, raw value)` assignments.
fn parse_assignments(text: &str) -> Result<BTreeMap<String, (usize, RawValue)>, DescriptorError> {
    let mut map = BTreeMap::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(DescriptorError::Malformed {
                line: line_no,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let key = key.trim();
        let value = value.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Err(DescriptorError::Malformed {
                line: line_no,
                message: format!("bad key `{key}` (lowercase snake_case required)"),
            });
        }
        if value.is_empty() {
            return Err(DescriptorError::Malformed {
                line: line_no,
                message: format!("`{key}` has no value"),
            });
        }
        let raw = if let Some(inner) = value.strip_prefix('"') {
            let Some(inner) = inner.strip_suffix('"') else {
                return Err(DescriptorError::Malformed {
                    line: line_no,
                    message: format!("`{key}`: unterminated string"),
                });
            };
            RawValue::Str(inner.to_string())
        } else {
            RawValue::Num(value.to_string())
        };
        if map.insert(key.to_string(), (line_no, raw)).is_some() {
            return Err(DescriptorError::DuplicateKey {
                line: line_no,
                key: key.to_string(),
            });
        }
    }
    Ok(map)
}

/// Drop a trailing `# comment`, respecting `"…"` string values (a `#`
/// inside quotes is part of the name).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// All schema keys, in the order the error message lists missing ones.
const KEYS: &[&str] = &[
    "name",
    "sm_count",
    "cores_per_sm",
    "clock_mhz",
    "warp_size",
    "max_threads_per_sm",
    "max_warps_per_sm",
    "max_blocks_per_sm",
    "max_threads_per_block",
    "registers_per_sm",
    "max_registers_per_thread",
    "register_alloc_granularity",
    "shared_mem_per_sm",
    "shared_mem_per_block",
    "shared_alloc_granularity",
    "shared_banks",
    "shared_bank_bytes",
    "global_mem_bytes",
    "mem_bandwidth_gbs",
    "transaction_bytes",
    "pcie_pinned_gbs",
    "pcie_pageable_gbs",
    "launch_overhead_us",
    "transfer_latency_us",
];

/// Typed accessors over the raw assignment map; every `take_*` removes
/// the key so leftovers can be reported as unknown.
struct Fields {
    map: BTreeMap<String, (usize, RawValue)>,
    missing: Vec<String>,
}

impl Fields {
    fn take(&mut self, key: &str) -> Option<(usize, RawValue)> {
        let v = self.map.remove(key);
        if v.is_none() {
            self.missing.push(key.to_string());
        }
        v
    }

    fn string(&mut self, key: &str) -> Result<String, DescriptorError> {
        match self.take(key) {
            Some((_, RawValue::Str(s))) => Ok(s),
            Some((line, RawValue::Num(_))) => Err(DescriptorError::BadValue {
                line,
                key: key.to_string(),
                expected: "a quoted string",
            }),
            None => Ok(String::new()), // reported via `missing`
        }
    }

    fn u64(&mut self, key: &str) -> Result<u64, DescriptorError> {
        match self.take(key) {
            Some((line, RawValue::Num(n))) => {
                let cleaned: String = n.chars().filter(|c| *c != '_').collect();
                cleaned.parse().map_err(|_| DescriptorError::BadValue {
                    line,
                    key: key.to_string(),
                    expected: "an unsigned integer",
                })
            }
            Some((line, RawValue::Str(_))) => Err(DescriptorError::BadValue {
                line,
                key: key.to_string(),
                expected: "an unsigned integer",
            }),
            None => Ok(0),
        }
    }

    fn u32(&mut self, key: &str) -> Result<u32, DescriptorError> {
        match self.take(key) {
            Some((line, RawValue::Num(n))) => {
                let cleaned: String = n.chars().filter(|c| *c != '_').collect();
                cleaned.parse().map_err(|_| DescriptorError::BadValue {
                    line,
                    key: key.to_string(),
                    expected: "an unsigned 32-bit integer",
                })
            }
            Some((line, RawValue::Str(_))) => Err(DescriptorError::BadValue {
                line,
                key: key.to_string(),
                expected: "an unsigned 32-bit integer",
            }),
            None => Ok(0),
        }
    }

    fn f64(&mut self, key: &str) -> Result<f64, DescriptorError> {
        match self.take(key) {
            Some((line, RawValue::Num(n))) => {
                let cleaned: String = n.chars().filter(|c| *c != '_').collect();
                cleaned.parse().map_err(|_| DescriptorError::BadValue {
                    line,
                    key: key.to_string(),
                    expected: "a number",
                })
            }
            Some((line, RawValue::Str(_))) => Err(DescriptorError::BadValue {
                line,
                key: key.to_string(),
                expected: "a number",
            }),
            None => Ok(0.0),
        }
    }
}

/// Parse a descriptor into a validated [`DeviceSpec`].
pub fn parse_descriptor(text: &str) -> Result<DeviceSpec, DescriptorError> {
    let map = parse_assignments(text)?;
    let mut fields = Fields {
        map,
        missing: Vec::new(),
    };
    let spec = DeviceSpec {
        name: fields.string("name")?,
        sm_count: fields.u32("sm_count")?,
        cores_per_sm: fields.u32("cores_per_sm")?,
        clock_mhz: fields.u32("clock_mhz")?,
        warp_size: fields.u32("warp_size")?,
        max_threads_per_sm: fields.u32("max_threads_per_sm")?,
        max_warps_per_sm: fields.u32("max_warps_per_sm")?,
        max_blocks_per_sm: fields.u32("max_blocks_per_sm")?,
        max_threads_per_block: fields.u32("max_threads_per_block")?,
        registers_per_sm: fields.u32("registers_per_sm")?,
        max_registers_per_thread: fields.u32("max_registers_per_thread")?,
        register_alloc_granularity: fields.u32("register_alloc_granularity")?,
        shared_mem_per_sm: fields.u32("shared_mem_per_sm")?,
        shared_mem_per_block: fields.u32("shared_mem_per_block")?,
        shared_alloc_granularity: fields.u32("shared_alloc_granularity")?,
        shared_banks: fields.u32("shared_banks")?,
        shared_bank_bytes: fields.u32("shared_bank_bytes")?,
        global_mem_bytes: fields.u64("global_mem_bytes")?,
        mem_bandwidth_gbs: fields.f64("mem_bandwidth_gbs")?,
        transaction_bytes: fields.u32("transaction_bytes")?,
        pcie_pinned_gbs: fields.f64("pcie_pinned_gbs")?,
        pcie_pageable_gbs: fields.f64("pcie_pageable_gbs")?,
        launch_overhead_us: fields.f64("launch_overhead_us")?,
        transfer_latency_us: fields.f64("transfer_latency_us")?,
    };
    if !fields.missing.is_empty() {
        return Err(DescriptorError::MissingKeys(fields.missing));
    }
    if let Some((key, (line, _))) = fields.map.into_iter().next() {
        debug_assert!(!KEYS.contains(&key.as_str()), "typed accessor missed {key}");
        return Err(DescriptorError::UnknownKey { line, key });
    }
    spec.validate().map_err(DescriptorError::Invalid)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_k40c_descriptor_is_the_golden_spec() {
        let parsed = parse_descriptor(K40C_DESCRIPTOR).expect("k40c descriptor parses");
        assert_eq!(parsed, DeviceSpec::k40c());
    }

    #[test]
    fn shipped_gm204_descriptor_parses_and_validates() {
        let gm204 = parse_descriptor(GM204_DESCRIPTOR).expect("gm204 descriptor parses");
        assert_eq!(gm204.sm_count, 16);
        assert_eq!(gm204.total_cores(), 2048);
        // maxDNN: "the GTX980 has a peak of 4612 GFLOPS".
        assert!((gm204.peak_flops() / 1e9 - 4612.0).abs() < 10.0);
    }

    #[test]
    fn comments_blank_lines_and_separators_are_cosmetic() {
        let text = K40C_DESCRIPTOR
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .map(|l| {
                let l = strip_comment(l).trim();
                // Strip `_` digit separators from the value side only.
                match l.split_once('=') {
                    Some((k, v)) => format!("{k}= {}", v.trim().replace('_', "")),
                    None => l.to_string(),
                }
            })
            .collect::<Vec<_>>()
            .join("\n\n");
        assert_eq!(parse_descriptor(&text).unwrap(), DeviceSpec::k40c());
    }

    #[test]
    fn hash_inside_string_value_is_not_a_comment() {
        let text = K40C_DESCRIPTOR.replace("\"Tesla K40c\"", "\"Tesla #1 K40c\"");
        assert_eq!(parse_descriptor(&text).unwrap().name, "Tesla #1 K40c");
    }

    #[test]
    fn missing_key_is_reported_by_name() {
        let text = K40C_DESCRIPTOR.replace("sm_count = 15", "");
        match parse_descriptor(&text) {
            Err(DescriptorError::MissingKeys(keys)) => {
                assert_eq!(keys, vec!["sm_count".to_string()])
            }
            other => panic!("expected MissingKeys, got {other:?}"),
        }
    }

    #[test]
    fn unknown_key_is_rejected() {
        let text = format!("{K40C_DESCRIPTOR}\ntensor_cores = 99\n");
        match parse_descriptor(&text) {
            Err(DescriptorError::UnknownKey { key, .. }) => assert_eq!(key, "tensor_cores"),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let text = format!("{K40C_DESCRIPTOR}\nsm_count = 16\n");
        assert!(matches!(
            parse_descriptor(&text),
            Err(DescriptorError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn type_mismatches_are_rejected() {
        let quoted = K40C_DESCRIPTOR.replace("sm_count = 15", "sm_count = \"fifteen\"");
        assert!(matches!(
            parse_descriptor(&quoted),
            Err(DescriptorError::BadValue { .. })
        ));
        let bare_name = K40C_DESCRIPTOR.replace("name = \"Tesla K40c\"", "name = K40c");
        assert!(matches!(
            parse_descriptor(&bare_name),
            Err(DescriptorError::BadValue { .. })
        ));
        let fractional = K40C_DESCRIPTOR.replace("sm_count = 15", "sm_count = 15.5");
        assert!(matches!(
            parse_descriptor(&fractional),
            Err(DescriptorError::BadValue { .. })
        ));
    }

    #[test]
    fn structurally_broken_lines_are_rejected() {
        for bad in ["just words", "= 5", "sm_count =", "Name = \"x\""] {
            let text = format!("{K40C_DESCRIPTOR}\n{bad}\n");
            assert!(
                matches!(
                    parse_descriptor(&text),
                    Err(DescriptorError::Malformed { .. })
                        | Err(DescriptorError::DuplicateKey { .. })
                ),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn invalid_specs_fail_validation_not_silently() {
        let zero_sms = K40C_DESCRIPTOR.replace("sm_count = 15", "sm_count = 0");
        match parse_descriptor(&zero_sms) {
            Err(DescriptorError::Invalid(v)) => {
                assert!(v.iter().any(|m| m.contains("sm_count")), "{v:?}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn error_display_names_the_line() {
        let text = "sm_count = yes\n";
        let err = parse_descriptor(text).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
