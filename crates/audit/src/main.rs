//! Workspace soundness auditor entry point.
//!
//! `cargo run -p gcnn-audit [--format text|json] [workspace-root]` —
//! audits every `.rs` file under `crates/`, `vendor/`, `tests/`, and
//! `examples/`, and reads `benchmark/src/` for the call graph. The
//! default text mode prints `path:line: [lint] message` diagnostics (the
//! format the CI problem matcher consumes);
//! `--format json` emits a machine-readable report document instead.
//! Exits non-zero if any policy is violated.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gcnn_audit::{audit_workspace, report_to_json, AuditConfig};

enum Format {
    Text,
    Json,
}

fn usage() -> ExitCode {
    eprintln!("usage: gcnn-audit [--format text|json] [workspace-root]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => return usage(),
        }
    }
    let root = root.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let report = match audit_workspace(&root, &AuditConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "gcnn-audit: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    match format {
        Format::Json => print!("{}", report_to_json(&report)),
        Format::Text => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            if report.diagnostics.is_empty() {
                println!(
                    "gcnn-audit: OK — {} files across {} scan units, {} fns / {} call edges, 0 violations",
                    report.files_scanned,
                    report.crates_scanned,
                    report.fn_items,
                    report.call_edges
                );
            } else {
                eprintln!(
                    "gcnn-audit: {} violation(s) in {} files across {} scan units",
                    report.diagnostics.len(),
                    report.files_scanned,
                    report.crates_scanned
                );
            }
        }
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
