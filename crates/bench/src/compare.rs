//! The CI bench regression gates: one row type, one pass rule, one
//! renderer, and six gate functions that read `BENCH_*.json` reports
//! into rows.
//!
//! A gate parses its report completely — a malformed report is an
//! `Err`, never a pass — and then returns one [`Check`] per gated
//! number. Every number comes from one of two helpers: a field of the
//! current report held to an absolute bound, or `current / baseline`
//! over keyed lists (hot-path section p50s, serve's peak throughput and
//! headline p50). A key the baseline has and the current
//! report lacks is a row with no value, and it fails. The SIMD-relative
//! gates (simd, fft, layout) return no rows on a scalar-only host, where
//! there is no vector path to regress.
//!
//! The bounds are the constants below; `bench_compare` takes only report
//! paths. p50 is the hot-path statistic: it is robust to the one-off
//! outliers that shared CI runners produce, which mean/p95 are not.

use serde_json::Value;

/// Hot-path sections: current p50 at most `1 + HOTPATH_TOLERANCE` times
/// the baseline's.
pub const HOTPATH_TOLERANCE: f64 = 0.25;
/// SIMD report: dispatched SGEMM over forced-scalar, at least.
pub const SIMD_MIN_SGEMM_SPEEDUP: f64 = 1.2;
/// SIMD report: the rfft geomean may not lose throughput outright (the
/// butterflies are memory-bound, so parity is acceptable; the fft gate
/// holds the real floor).
pub const SIMD_MIN_RFFT_SPEEDUP: f64 = 0.9;
/// FFT sweep: geomean of the per size×batch SIMD-over-scalar speedups.
pub const FFT_MIN_OVERALL_SPEEDUP: f64 = 1.2;
/// FFT sweep: floor of any one cell (small single-plane transforms are
/// latency-bound and noisy; a dispatch regression lands far below it).
pub const FFT_MIN_ENTRY_SPEEDUP: f64 = 0.75;
/// Layout sweep: fused NCHWc over unfused planar, geomean of the
/// headline entries (channel counts that fill the SIMD block).
pub const LAYOUT_MIN_SPEEDUP: f64 = 1.15;
/// Layout sweep: floor of any one headline entry. Non-headline entries
/// (remainder-heavy shapes such as LeNet's) are reported, never gated.
pub const LAYOUT_MIN_HEADLINE_SPEEDUP: f64 = 1.0;
/// Serve sweep: throughput at the largest batch cap over cap 1 (batching
/// must keep beating single-image serving).
pub const SERVE_MIN_BATCHED_SPEEDUP: f64 = 1.0;
/// Serve sweep: peak throughput at least `1 − SERVE_TOLERANCE` and
/// headline p50 at most `1 + SERVE_TOLERANCE` of the baseline. Wider than
/// the kernel gates: the numbers come from a threaded closed loop.
pub const SERVE_TOLERANCE: f64 = 0.35;
/// The side of a threshold a value must be on; the threshold passes.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

/// One gated number.
#[derive(Debug, Clone)]
pub struct Check {
    /// The gate that produced the row: `hotpaths`, `trace`, `simd`, …
    pub gate: &'static str,
    /// What was measured: a section, a sweep cell, a headline field.
    pub subject: String,
    /// The number held to `bound` (`current / baseline` on a relative
    /// row); `None` when the baseline has the subject and the current
    /// report does not.
    pub value: Option<f64>,
    pub bound: Bound,
}

impl Check {
    /// True when the value exists and meets the bound; NaN fails.
    pub fn passed(&self) -> bool {
        match (self.value, self.bound) {
            (Some(v), Bound::AtLeast(x)) => v >= x,
            (Some(v), Bound::AtMost(x)) => v <= x,
            (None, _) => false,
        }
    }
}

/// True when any row failed.
pub fn failed(checks: &[Check]) -> bool {
    checks.iter().any(|c| !c.passed())
}

/// One line per row, for CI logs.
pub fn render(checks: &[Check]) -> String {
    checks
        .iter()
        .map(|c| {
            let value = c.value.map_or("missing".to_string(), |v| format!("{v:.3}"));
            let (op, x) = match c.bound {
                Bound::AtLeast(x) => (">=", x),
                Bound::AtMost(x) => ("<=", x),
            };
            let verdict = if c.passed() { "ok" } else { "FAILED" };
            format!(
                "{:<8} {:<40} {value:>10} {op} {x:<6.3} {verdict}\n",
                c.gate, c.subject
            )
        })
        .collect()
}

/// The value at the dotted `path` of `v`, read by `as_`; `what` names
/// `v` in the error.
fn get<'a, T>(
    v: &'a Value,
    path: &str,
    as_: fn(&'a Value) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    path.split('.')
        .try_fold(v, |v, key| v.get(key))
        .and_then(as_)
        .ok_or_else(|| format!("{what} has no `{path}`"))
}

/// The number at `path` of a current report (or one of its entries),
/// held to an absolute bound.
fn absolute(
    gate: &'static str,
    report: &Value,
    path: &str,
    subject: &str,
    bound: Bound,
) -> Result<Check, String> {
    let value = get(
        report,
        path,
        Value::as_f64,
        &format!("{gate} report ({subject})"),
    )?;
    Ok(Check {
        gate,
        subject: subject.to_string(),
        value: Some(value),
        bound,
    })
}

/// One row per baseline key: `current / baseline` held to `bound`, with
/// no value where the current list lacks the key. Keys only the current
/// list has are ignored (adding a benchmark is not a regression).
fn ratios(
    gate: &'static str,
    base: &[(String, f64)],
    cur: &[(String, f64)],
    bound: Bound,
) -> Result<Vec<Check>, String> {
    base.iter()
        .map(|(key, b)| {
            if *b <= 0.0 {
                return Err(format!("{gate} baseline: {key} is {b}, not positive"));
            }
            Ok(Check {
                gate,
                subject: key.clone(),
                value: cur.iter().find(|(k, _)| k == key).map(|(_, c)| c / b),
                bound,
            })
        })
        .collect()
}

/// A SIMD-over-scalar gate's rows, or none when the report was produced
/// on a scalar-only host, where there is no vector path to regress.
fn unless_scalar(gate: &str, report: &Value, rows: Vec<Check>) -> Result<Vec<Check>, String> {
    let isa = get(report, "isa", Value::as_str, &format!("{gate} report"))?;
    Ok(if isa == "scalar" { Vec::new() } else { rows })
}

/// `(name, p50_ms)` of every measured section; a skipped section records
/// `iters == 0` and no meaningful timing.
fn sections(report: &Value) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for s in get(report, "sections", Value::as_array, "hotpaths report")? {
        let name = get(s, "name", Value::as_str, "hotpaths section")?;
        if s.get("iters").and_then(Value::as_u64).unwrap_or(0) > 0 {
            out.push((name.to_string(), get(s, "p50_ms", Value::as_f64, name)?));
        }
    }
    Ok(out)
}

/// Hold a current `BENCH_hotpaths.json` against the baseline: each
/// measured baseline section's p50 may grow by at most
/// [`HOTPATH_TOLERANCE`], and may not go missing.
pub fn hotpaths_gate(baseline: &Value, current: &Value) -> Result<Vec<Check>, String> {
    let bound = Bound::AtMost(1.0 + HOTPATH_TOLERANCE);
    ratios("hotpaths", &sections(baseline)?, &sections(current)?, bound)
}

/// Gate a `BENCH_trace.json`: the steady-state fresh-allocation count
/// must be zero, meaning the arena absorbed the workload after warm-up.
pub fn trace_gate(trace: &Value) -> Result<Vec<Check>, String> {
    Ok(vec![absolute(
        "trace",
        trace,
        "steady_fresh_allocs",
        "steady-state fresh allocations",
        Bound::AtMost(0.0),
    )?])
}

/// Gate a `BENCH_simd.json`: the dispatched SGEMM and rfft over their
/// forced-scalar arms ([`SIMD_MIN_SGEMM_SPEEDUP`],
/// [`SIMD_MIN_RFFT_SPEEDUP`]).
pub fn simd_gate(report: &Value) -> Result<Vec<Check>, String> {
    let rows = vec![
        absolute(
            "simd",
            report,
            "sgemm_speedup",
            "sgemm speedup over scalar",
            Bound::AtLeast(SIMD_MIN_SGEMM_SPEEDUP),
        )?,
        absolute(
            "simd",
            report,
            "rfft_speedup",
            "rfft speedup over scalar",
            Bound::AtLeast(SIMD_MIN_RFFT_SPEEDUP),
        )?,
    ];
    unless_scalar("simd", report, rows)
}

/// Gate a `BENCH_fft.json` sweep: the geomean ([`FFT_MIN_OVERALL_SPEEDUP`])
/// and every size×batch cell ([`FFT_MIN_ENTRY_SPEEDUP`]), which catches
/// "faster on average, slower at one size".
pub fn fft_gate(report: &Value) -> Result<Vec<Check>, String> {
    let mut rows = vec![absolute(
        "fft",
        report,
        "overall_speedup",
        "overall speedup (geomean)",
        Bound::AtLeast(FFT_MIN_OVERALL_SPEEDUP),
    )?];
    for e in get(report, "entries", Value::as_array, "fft report")? {
        let n = get(e, "n", Value::as_u64, "fft entry")?;
        let batch = get(e, "batch", Value::as_u64, "fft entry")?;
        let subject = format!("rfft {n}x{n} batch {batch}");
        rows.push(absolute(
            "fft",
            e,
            "speedup",
            &subject,
            Bound::AtLeast(FFT_MIN_ENTRY_SPEEDUP),
        )?);
    }
    unless_scalar("fft", report, rows)
}

/// Gate a `BENCH_layout.json` sweep: fused NCHWc over unfused planar,
/// the headline geomean ([`LAYOUT_MIN_SPEEDUP`]) and each headline entry
/// ([`LAYOUT_MIN_HEADLINE_SPEEDUP`]).
pub fn layout_gate(report: &Value) -> Result<Vec<Check>, String> {
    let mut rows = vec![absolute(
        "layout",
        report,
        "overall_speedup",
        "headline speedup (geomean)",
        Bound::AtLeast(LAYOUT_MIN_SPEEDUP),
    )?];
    for e in get(report, "entries", Value::as_array, "layout report")? {
        let name = get(e, "name", Value::as_str, "layout entry")?;
        let row = absolute(
            "layout",
            e,
            "speedup",
            name,
            Bound::AtLeast(LAYOUT_MIN_HEADLINE_SPEEDUP),
        )?;
        // The vendored `Value` has no `as_bool` helper.
        if matches!(e.get("headline"), Some(Value::Bool(true))) {
            rows.push(row);
        }
    }
    unless_scalar("layout", report, rows)
}

/// `[("headline p50", p50)]` of a serve report: the p50 of its headline
/// cell, the largest batch cap at the highest offered load (where
/// `batched_speedup` is measured).
fn serve_headline_p50(report: &Value) -> Result<Vec<(String, f64)>, String> {
    let cells = get(report, "cells", Value::as_array, "serve report")?
        .iter()
        .map(|c| {
            let cap = get(c, "max_batch", Value::as_u64, "serve cell")?;
            let load = get(c, "offered_inflight", Value::as_u64, "serve cell")?;
            Ok(((cap, load), get(c, "p50_ms", Value::as_f64, "serve cell")?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (_, p50) = cells
        .into_iter()
        .max_by_key(|(key, _)| *key)
        .ok_or("serve report has no cells")?;
    Ok(vec![("headline p50".to_string(), p50)])
}

/// Hold a current `BENCH_serve.json` against the baseline: the batching
/// win ([`SERVE_MIN_BATCHED_SPEEDUP`]), peak throughput and headline-cell
/// p50 within [`SERVE_TOLERANCE`].
pub fn serve_gate(baseline: &Value, current: &Value) -> Result<Vec<Check>, String> {
    let peak = |r: &Value| {
        let rps = get(r, "capmax_throughput_rps", Value::as_f64, "serve report")?;
        Ok::<_, String>(vec![("peak throughput".to_string(), rps)])
    };
    let mut rows = vec![absolute(
        "serve",
        current,
        "batched_speedup",
        "batched speedup (cap max over cap 1)",
        Bound::AtLeast(SERVE_MIN_BATCHED_SPEEDUP),
    )?];
    let floor = Bound::AtLeast(1.0 - SERVE_TOLERANCE);
    rows.extend(ratios("serve", &peak(baseline)?, &peak(current)?, floor)?);
    let (base_p50, cur_p50) = (serve_headline_p50(baseline)?, serve_headline_p50(current)?);
    rows.extend(ratios(
        "serve",
        &base_p50,
        &cur_p50,
        Bound::AtMost(1.0 + SERVE_TOLERANCE),
    )?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, u64, f64)]) -> Value {
        let sections = entries
            .iter()
            .map(|(name, iters, p50)| {
                format!(r#"{{"name":"{name}","iters":{iters},"p50_ms":{p50}}}"#)
            })
            .collect::<Vec<_>>()
            .join(",");
        serde_json::from_str(&format!(r#"{{"sections":[{sections}]}}"#)).unwrap()
    }

    /// The failing rows alone, rendered.
    fn failures(rows: &[Check]) -> String {
        render(
            &rows
                .iter()
                .filter(|c| !c.passed())
                .cloned()
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn improvement_passes() {
        let base = report(&[("sgemm", 10, 100.0)]);
        let cur = report(&[("sgemm", 10, 60.0)]);
        let rows = hotpaths_gate(&base, &cur).unwrap();
        assert!(!failed(&rows));
        assert!((rows[0].value.unwrap() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn within_tolerance_passes() {
        // Exactly at the ceiling passes, as does anything below it.
        let base = report(&[("sgemm", 10, 100.0), ("fft", 10, 50.0)]);
        let ceiling = 1.0 + HOTPATH_TOLERANCE;
        let cur = report(&[("sgemm", 10, 100.0 * ceiling), ("fft", 10, 55.0)]);
        let rows = hotpaths_gate(&base, &cur).unwrap();
        assert!(!failed(&rows), "{}", render(&rows));
        assert_eq!(rows[0].value, Some(ceiling));
    }

    #[test]
    fn slowdown_beyond_tolerance_regresses() {
        let base = report(&[("sgemm", 10, 100.0), ("fft", 10, 50.0)]);
        let cur = report(&[("sgemm", 10, 130.0), ("fft", 10, 50.0)]);
        let rows = hotpaths_gate(&base, &cur).unwrap();
        assert!(failed(&rows));
        assert!(!rows[0].passed());
        assert!(rows[1].passed());
        assert!(failures(&rows).contains("sgemm"));
        assert!(!failures(&rows).contains("fft"));
    }

    #[test]
    fn missing_section_regresses() {
        let base = report(&[("sgemm", 10, 100.0), ("fft", 10, 50.0)]);
        let cur = report(&[("sgemm", 10, 100.0)]);
        let rows = hotpaths_gate(&base, &cur).unwrap();
        assert!(failed(&rows));
        assert_eq!(rows[1].value, None);
        assert!(failures(&rows).contains("missing"));
    }

    #[test]
    fn skipped_sections_are_ignored() {
        // A baseline section with iters == 0 (e.g. Direct skipped on a
        // small runner) must not count as missing later.
        let base = report(&[("direct", 0, 0.0), ("sgemm", 10, 100.0)]);
        let cur = report(&[("sgemm", 10, 100.0)]);
        let rows = hotpaths_gate(&base, &cur).unwrap();
        assert!(!failed(&rows));
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn baseline_vs_itself_is_clean() {
        let base = report(&[("sgemm", 10, 100.0), ("fft", 10, 50.0)]);
        let rows = hotpaths_gate(&base, &base).unwrap();
        assert!(rows.iter().all(|r| r.passed() && r.value == Some(1.0)));
    }

    #[test]
    fn malformed_report_errors() {
        let bad: Value = serde_json::from_str(r#"{"nope": 1}"#).unwrap();
        assert!(hotpaths_gate(&bad, &bad).is_err());
    }

    fn simd_report(isa: &str, sgemm: f64, rfft: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"isa":"{isa}","sgemm_speedup":{sgemm},"rfft_speedup":{rfft}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn simd_gate_passes_healthy_report() {
        let rows = simd_gate(&simd_report("avx2+fma", 2.1, 1.3)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(!failed(&rows));
        assert!(render(&rows).contains("ok"));
    }

    #[test]
    fn simd_gate_fails_slow_sgemm() {
        let rows = simd_gate(&simd_report("avx2+fma", 1.05, 1.3)).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("sgemm"));
        assert!(!failures(&rows).contains("rfft"));
    }

    #[test]
    fn simd_gate_fails_fft_throughput_loss() {
        let rows = simd_gate(&simd_report("neon", 1.8, 0.5)).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("rfft"));
    }

    #[test]
    fn simd_gate_is_vacuous_on_scalar_hosts() {
        // A scalar-only host legitimately reports ~1.0x everywhere.
        assert!(simd_gate(&simd_report("scalar", 1.0, 0.5))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn simd_gate_rejects_malformed_report() {
        for bad in [
            r#"{"isa":"avx2+fma"}"#,
            r#"{"sgemm_speedup":2.0,"rfft_speedup":1.3}"#,
            r#"{"isa":"scalar","sgemm_speedup":1.0}"#,
        ] {
            let bad: Value = serde_json::from_str(bad).unwrap();
            assert!(simd_gate(&bad).is_err());
        }
    }

    fn fft_report(isa: &str, overall: f64, cells: &[(u64, u64, f64)]) -> Value {
        let entries = cells
            .iter()
            .map(|(n, b, s)| format!(r#"{{"n":{n},"batch":{b},"speedup":{s}}}"#))
            .collect::<Vec<_>>()
            .join(",");
        serde_json::from_str(&format!(
            r#"{{"isa":"{isa}","overall_speedup":{overall},"entries":[{entries}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn fft_gate_passes_healthy_sweep() {
        let rep = fft_report("avx2+fma", 4.2, &[(16, 1, 1.8), (64, 32, 6.0)]);
        let rows = fft_gate(&rep).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(!failed(&rows));
        assert!(render(&rows).contains("ok"));
    }

    #[test]
    fn fft_gate_fails_low_overall() {
        let rep = fft_report("avx2+fma", 1.1, &[(16, 1, 1.0), (64, 32, 1.2)]);
        let rows = fft_gate(&rep).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("overall"));
        assert!(!failures(&rows).contains("rfft"));
    }

    #[test]
    fn fft_gate_fails_regressed_cell_despite_good_overall() {
        let rep = fft_report("avx2+fma", 3.0, &[(16, 1, 0.5), (64, 32, 9.0)]);
        let rows = fft_gate(&rep).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("16x16 batch 1"));
        assert!(!failures(&rows).contains("64x64"));
    }

    #[test]
    fn fft_gate_is_vacuous_on_scalar_hosts() {
        let rep = fft_report("scalar", 1.0, &[(16, 1, 0.5)]);
        assert!(fft_gate(&rep).unwrap().is_empty());
    }

    #[test]
    fn fft_gate_rejects_malformed_report() {
        let bad: Value = serde_json::from_str(r#"{"isa":"avx2+fma"}"#).unwrap();
        assert!(fft_gate(&bad).is_err());
        // An entry without its speedup is malformed on a scalar host too.
        for isa in ["avx2+fma", "scalar"] {
            let no_speedup: Value = serde_json::from_str(&format!(
                r#"{{"isa":"{isa}","overall_speedup":3.0,"entries":[{{"n":16,"batch":1}}]}}"#
            ))
            .unwrap();
            assert!(fft_gate(&no_speedup).is_err(), "{isa}");
        }
    }

    fn layout_report(isa: &str, overall: f64, cells: &[(&str, bool, f64)]) -> Value {
        let entries = cells
            .iter()
            .map(|(name, headline, s)| {
                format!(r#"{{"name":"{name}","headline":{headline},"speedup":{s}}}"#)
            })
            .collect::<Vec<_>>()
            .join(",");
        serde_json::from_str(&format!(
            r#"{{"isa":"{isa}","overall_speedup":{overall},"entries":[{entries}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn layout_gate_passes_healthy_sweep() {
        let rep = layout_report(
            "avx2+fma",
            1.6,
            &[("vgg3_like", true, 1.7), ("lenet_conv1", false, 0.6)],
        );
        let rows = layout_gate(&rep).unwrap();
        assert!(!failed(&rows), "{}", render(&rows));
        assert!(render(&rows).contains("ok"));
    }

    #[test]
    fn layout_gate_fails_low_overall() {
        let rep = layout_report("avx2+fma", 1.05, &[("vgg3_like", true, 1.05)]);
        let rows = layout_gate(&rep).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("headline speedup"));
        assert!(!failures(&rows).contains("vgg3_like"));
    }

    #[test]
    fn layout_gate_fails_losing_headline_entry_despite_good_overall() {
        let rep = layout_report(
            "avx2+fma",
            1.4,
            &[("vgg3_like", true, 2.1), ("alexnet_conv3", true, 0.9)],
        );
        let rows = layout_gate(&rep).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("alexnet_conv3"));
        assert!(!failures(&rows).contains("vgg3_like"));
    }

    #[test]
    fn layout_gate_ignores_non_headline_losses() {
        // Remainder-heavy shapes may legitimately lose to planar; they
        // are reported but never gate.
        let rep = layout_report(
            "avx2+fma",
            1.5,
            &[("vgg3_like", true, 1.5), ("lenet_conv1", false, 0.4)],
        );
        let rows = layout_gate(&rep).unwrap();
        assert!(!failed(&rows));
        assert!(!render(&rows).contains("lenet_conv1"));
    }

    #[test]
    fn layout_gate_is_vacuous_on_scalar_hosts() {
        let rep = layout_report("scalar", 0.8, &[("vgg3_like", true, 0.8)]);
        assert!(layout_gate(&rep).unwrap().is_empty());
    }

    #[test]
    fn layout_gate_rejects_malformed_report() {
        let bad: Value = serde_json::from_str(r#"{"isa":"avx2+fma"}"#).unwrap();
        assert!(layout_gate(&bad).is_err());
        // An entry without its speedup is malformed on a scalar host too.
        for isa in ["avx2+fma", "scalar"] {
            let no_speedup: Value = serde_json::from_str(&format!(
                r#"{{"isa":"{isa}","overall_speedup":1.5,
                    "entries":[{{"name":"x","headline":true}}]}}"#
            ))
            .unwrap();
            assert!(layout_gate(&no_speedup).is_err(), "{isa}");
        }
    }

    #[test]
    fn alloc_gate_reads_count() {
        let t: Value = serde_json::from_str(r#"{"steady_fresh_allocs": 3}"#).unwrap();
        let rows = trace_gate(&t).unwrap();
        assert_eq!(rows[0].value, Some(3.0));
        assert!(failures(&rows).contains("steady-state fresh allocations"));
        let zero: Value = serde_json::from_str(r#"{"steady_fresh_allocs": 0}"#).unwrap();
        assert!(!failed(&trace_gate(&zero).unwrap()));
        let missing: Value = serde_json::from_str("{}").unwrap();
        assert!(trace_gate(&missing).is_err());
    }

    fn serve_report(speedup: f64, capmax_thru: f64, cells: &[(u64, u64, f64)]) -> Value {
        let cells = cells
            .iter()
            .map(|(cap, inflight, p50)| {
                format!(r#"{{"max_batch":{cap},"offered_inflight":{inflight},"p50_ms":{p50}}}"#)
            })
            .collect::<Vec<_>>()
            .join(",");
        serde_json::from_str(&format!(
            r#"{{"batched_speedup":{speedup},"capmax_throughput_rps":{capmax_thru},
                 "cells":[{cells}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn serve_gate_passes_when_everything_holds() {
        let base = serve_report(1.5, 20_000.0, &[(1, 16, 0.8), (8, 16, 0.5)]);
        let cur = serve_report(1.6, 21_000.0, &[(1, 16, 0.7), (8, 16, 0.45)]);
        let rows = serve_gate(&base, &cur).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(!failed(&rows), "{}", render(&rows));
        assert!(render(&rows).contains("ok"));
    }

    #[test]
    fn serve_gate_fails_when_batching_stops_winning() {
        let base = serve_report(1.5, 20_000.0, &[(8, 16, 0.5)]);
        let cur = serve_report(0.9, 21_000.0, &[(8, 16, 0.5)]);
        let rows = serve_gate(&base, &cur).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("batched speedup"));
    }

    #[test]
    fn serve_gate_fails_on_throughput_regression() {
        let base = serve_report(1.5, 20_000.0, &[(8, 16, 0.5)]);
        let cur = serve_report(1.5, 10_000.0, &[(8, 16, 0.5)]);
        let rows = serve_gate(&base, &cur).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("peak throughput"));
    }

    #[test]
    fn serve_gate_fails_on_p50_regression_of_headline_cell() {
        // The headline cell is the largest (cap, inflight) pair; the
        // low-load cells may regress freely.
        let base = serve_report(1.5, 20_000.0, &[(1, 4, 0.1), (8, 16, 0.5)]);
        let cur = serve_report(1.5, 20_000.0, &[(1, 4, 9.9), (8, 16, 0.5)]);
        assert!(!failed(&serve_gate(&base, &cur).unwrap()));
        let cur_bad = serve_report(1.5, 20_000.0, &[(1, 4, 0.1), (8, 16, 1.5)]);
        let rows = serve_gate(&base, &cur_bad).unwrap();
        assert!(failed(&rows));
        assert!(failures(&rows).contains("headline p50"));
    }

    #[test]
    fn serve_gate_tolerance_is_honored() {
        // `past` > 0 puts every number that far past its bound; < 0 inside.
        let base = serve_report(1.5, 20_000.0, &[(8, 16, 0.5)]);
        let probe = |past: f64| {
            serve_report(
                SERVE_MIN_BATCHED_SPEEDUP - past,
                20_000.0 * (1.0 - SERVE_TOLERANCE - past),
                &[(8, 16, 0.5 * (1.0 + SERVE_TOLERANCE + past))],
            )
        };
        let inside = serve_gate(&base, &probe(-1e-3)).unwrap();
        assert_eq!(inside.len(), 3);
        assert!(!failed(&inside), "{}", render(&inside));
        let outside = serve_gate(&base, &probe(1e-3)).unwrap();
        assert!(outside.iter().all(|c| !c.passed()), "{}", render(&outside));
    }

    #[test]
    fn serve_gate_rejects_malformed_reports() {
        let good = serve_report(1.5, 20_000.0, &[(8, 16, 0.5)]);
        let no_cells: Value =
            serde_json::from_str(r#"{"batched_speedup":1.5,"capmax_throughput_rps":1.0}"#).unwrap();
        assert!(serve_gate(&good, &no_cells).is_err());
        assert!(serve_gate(&no_cells, &good).is_err());
        let zero_base = serve_report(1.5, 0.0, &[(8, 16, 0.5)]);
        assert!(serve_gate(&zero_base, &good).is_err());
    }

    /// Every gate reads the committed `results/BENCH_*.json` as written:
    /// held against themselves, each emits rows and none fails.
    #[test]
    fn committed_reports_pass_every_gate() {
        let load = |name: &str| -> Value {
            let path = format!(
                "{}/../../results/BENCH_{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap()
        };
        let (hot, serve) = (load("hotpaths"), load("serve"));
        for rows in [
            hotpaths_gate(&hot, &hot),
            trace_gate(&load("trace")),
            simd_gate(&load("simd")),
            fft_gate(&load("fft")),
            layout_gate(&load("layout")),
            serve_gate(&serve, &serve),
        ] {
            let rows = rows.unwrap();
            assert!(!rows.is_empty());
            assert!(!failed(&rows), "{}", render(&rows));
        }
    }
}
