//! Plain-text table rendering for the experiment binaries.

use crate::compare::{ComparisonCell, ComparisonTable};
use crate::memprofile::MemoryTable;

/// Render a value grid as a fixed-width text table.
pub fn text_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render a runtime comparison table (Fig. 3 panel).
pub fn render_comparison(t: &ComparisonTable) -> String {
    let mut header = vec![t.axis.clone()];
    header.extend(t.implementations.iter().cloned());
    let rows: Vec<Vec<String>> = t
        .values
        .iter()
        .zip(&t.cells)
        .map(|(v, cells)| {
            let mut row = vec![v.to_string()];
            row.extend(cells.iter().map(|c| match c {
                ComparisonCell::Time(ms) => format!("{ms:.1}"),
                ComparisonCell::Unsupported(_) => "—".to_string(),
                ComparisonCell::OutOfMemory => "OOM".to_string(),
            }));
            row
        })
        .collect();
    text_table(
        &format!("runtime (ms per training iteration) vs {}", t.axis),
        &header,
        &rows,
    )
}

/// Render a memory comparison table (Fig. 5 panel).
pub fn render_memory(t: &MemoryTable) -> String {
    let mut header = vec![t.axis.clone()];
    header.extend(t.implementations.iter().cloned());
    let rows: Vec<Vec<String>> = t
        .values
        .iter()
        .zip(&t.cells)
        .map(|(v, cells)| {
            let mut row = vec![v.to_string()];
            row.extend(cells.iter().map(|c| match c.mb() {
                Some(mb) => format!("{mb:.0}"),
                None => "—".to_string(),
            }));
            row
        })
        .collect();
    text_table(
        &format!("peak GPU memory (MB) vs {}", t.axis),
        &header,
        &rows,
    )
}

/// Render a [`gcnn_trace::Snapshot`] as an indented span tree followed
/// by the counter and gauge tables. Empty sections are omitted, so an
/// empty snapshot renders an empty string.
pub fn render_trace(snap: &gcnn_trace::Snapshot) -> String {
    fn walk(node: &gcnn_trace::SpanNode, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{:indent$}{:<32} {:>8}  {:>10.3} ms total  {:>9.3} ms mean\n",
            "",
            node.name,
            node.count,
            node.total_ms,
            node.mean_ms,
            indent = 2 * depth,
        ));
        for child in &node.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = String::new();
    if !snap.spans.is_empty() {
        out.push_str("spans (name, count, total, mean):\n");
        for root in &snap.spans {
            walk(root, 1, &mut out);
        }
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snap.counters {
            out.push_str(&format!("  {name:<40} {value:>12}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snap.gauges {
            out.push_str(&format!("  {name:<40} {value:>12.3}\n"));
        }
    }
    out
}

/// Percentage formatter used across the binaries.
pub fn pct(f: f64) -> String {
    let v = 100.0 * f;
    // Avoid "-0.0%" from floating-point negative zeros.
    format!("{:.1}%", if v.abs() < 5e-2 { 0.0 } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s = text_table(
            "t",
            &["a".into(), "long".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t");
        assert!(lines[1].contains("a") && lines[1].contains("long"));
        // All data lines share the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.875), "87.5%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn render_trace_sections() {
        let empty = gcnn_trace::Snapshot::default();
        assert_eq!(render_trace(&empty), "");

        let snap = gcnn_trace::Snapshot {
            counters: [("fft.plan_cache.hits".to_string(), 7u64)]
                .into_iter()
                .collect(),
            gauges: [("steady.fresh_allocs".to_string(), 0.0f64)]
                .into_iter()
                .collect(),
            spans: vec![gcnn_trace::SpanNode {
                name: "sgemm".into(),
                path: "sgemm".into(),
                count: 4,
                total_ms: 8.0,
                mean_ms: 2.0,
                min_ms: 1.0,
                max_ms: 3.0,
                children: Vec::new(),
            }],
        };
        let s = render_trace(&snap);
        assert!(s.contains("sgemm"));
        assert!(s.contains("fft.plan_cache.hits"));
        assert!(s.contains("steady.fresh_allocs"));
    }

    #[test]
    fn render_comparison_smoke() {
        use crate::sweep::{Sweep, SweepAxis};
        let sweep = Sweep {
            axis: SweepAxis::Stride,
            values: vec![1, 2],
        };
        let t = crate::compare::runtime_comparison(&sweep, &gcnn_gpusim::DeviceSpec::k40c());
        let s = render_comparison(&t);
        assert!(s.contains("fbfft"));
        assert!(
            s.contains("—"),
            "stride-2 FFT cells should render as dashes:\n{s}"
        );
    }
}
