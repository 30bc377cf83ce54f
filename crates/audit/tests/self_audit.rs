//! The auditor's acceptance test: the workspace that ships the auditor
//! must itself audit clean. Any new undocumented unsafe, containment
//! leak, hot-path allocation, or off-convention trace name fails this
//! test (and `scripts/verify.sh`, and the CI `audit` job).

use std::path::Path;

use gcnn_audit::{audit_workspace, AuditConfig};

#[test]
fn workspace_audits_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = audit_workspace(&root, &AuditConfig::default()).expect("walk workspace");
    assert!(
        report.crates_scanned >= 22,
        "expected the full workspace (crates + vendor + tests + examples), \
         scanned only {} units",
        report.crates_scanned
    );
    assert!(
        report.files_scanned >= 100,
        "expected the full workspace, scanned only {} files",
        report.files_scanned
    );
    assert!(
        report.fn_items >= 500 && report.call_edges >= 1000,
        "call graph looks truncated: {} fns / {} edges",
        report.fn_items,
        report.call_edges
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must audit clean:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Regression test for the v1 blind spot: the auditor used to scan only
/// `crates/*`, so workspace-level integration tests and example
/// binaries escaped the forbid-unsafe and trace-naming passes entirely.
/// The paper-claims suite is the load-bearing case — it must be visited.
#[test]
fn workspace_tests_and_examples_are_visited() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = audit_workspace(&root, &AuditConfig::default()).expect("walk workspace");
    assert!(
        report.files.iter().any(|f| f == "tests/paper_claims.rs"),
        "tests/paper_claims.rs must be audited; visited: {:?}",
        report
            .files
            .iter()
            .filter(|f| f.starts_with("tests/"))
            .collect::<Vec<_>>()
    );
    assert!(
        report.files.iter().any(|f| f.starts_with("examples/")),
        "example binaries must be audited"
    );
}

/// The staleness guarantee against the real tree: if any hand-listed
/// hot function disappeared from the workspace (renamed, deleted), the
/// audit fails instead of silently auditing nothing. Simulated by
/// renaming one configured root to a name that cannot exist.
#[test]
fn deleting_a_hot_function_is_caught_by_staleness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut cfg = AuditConfig::default();
    let first = &mut cfg.hot_paths[0].functions[0];
    let victim = first.clone();
    *first = format!("{victim}_deleted_in_a_refactor");
    let report = audit_workspace(&root, &cfg).expect("walk workspace");
    assert!(
        report.diagnostics.iter().any(|d| {
            d.lint == gcnn_audit::Lint::ConfigStaleness
                && d.message.contains("_deleted_in_a_refactor")
        }),
        "staleness lint must catch the missing root `{victim}`:\n{:?}",
        report.diagnostics
    );
}

/// The JSON diagnostics document CI uploads must stay parseable and
/// carry the counters the problem-matcher workflow reports.
#[test]
fn json_report_is_well_formed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = audit_workspace(&root, &AuditConfig::default()).expect("walk workspace");
    let json = gcnn_audit::report_to_json(&report);
    for key in [
        "\"tool\": \"gcnn-audit\"",
        "\"schema_version\": 2",
        "\"crates_scanned\"",
        "\"files_scanned\"",
        "\"fn_items\"",
        "\"call_edges\"",
        "\"violations\"",
        "\"diagnostics\"",
    ] {
        assert!(json.contains(key), "JSON report missing {key}:\n{json}");
    }
    assert!(
        json.ends_with("}\n") && json.starts_with('{'),
        "not a JSON object"
    );
}

/// The serving crate's admission/pop pair is on the default
/// arena-discipline list: a `Vec::new` slipped into `offer` or
/// `pop_batch_into` (both run under the batcher mutex on every
/// request) must fail the audit, not just a code review.
#[test]
fn default_policy_covers_serve_batcher() {
    let cfg = AuditConfig::default();
    let hot = cfg
        .hot_paths
        .iter()
        .find(|h| "crates/serve/src/batcher.rs".ends_with(&h.file_suffix))
        .expect("serve batcher must be a registered hot path");
    for f in ["offer", "pop_batch_into"] {
        assert!(
            hot.functions.iter().any(|g| g == f),
            "serve hot path must audit `{f}`"
        );
    }
}

/// The NCHWc layout kernels are covered on both sides: the pack/unpack
/// family in `gcnn-tensor` and the fused tile kernels in `gcnn-conv`
/// run per inference inside `alloc_scope`-asserted paths, so a stray
/// allocation must fail the audit. The conv crate also stays on the
/// no-unsafe side of the containment line — the blocked path vectorizes
/// through the safe `simd` wrappers, not raw intrinsics.
#[test]
fn default_policy_covers_nchwc_kernels() {
    let cfg = AuditConfig::default();
    let cases: [(&str, &[&str]); 2] = [
        (
            "crates/tensor/src/nchwc.rs",
            &[
                "pack_nchwc_into",
                "unpack_nchwc_from",
                "pack_filters_into",
                "repad_packed",
            ],
        ),
        (
            "crates/conv/src/nchwc.rs",
            &[
                "forward_planes",
                "fused_conv_relu",
                "fused_conv_relu_pool",
                "max_pool_tile",
            ],
        ),
    ];
    for (path, fns) in cases {
        let hot = cfg
            .hot_paths
            .iter()
            .find(|h| path.ends_with(&h.file_suffix))
            .unwrap_or_else(|| panic!("{path} must be a registered hot path"));
        for f in fns {
            assert!(
                hot.functions.iter().any(|g| g == f),
                "{path} hot path must audit `{f}`"
            );
        }
    }
    assert!(
        !cfg.allowed_unsafe.iter().any(|c| c == "gcnn-conv"),
        "gcnn-conv forbids unsafe; the blocked path must not change that"
    );
}

/// The simulator's event loop is covered from day one: `step` and
/// `dispatch` run once per simulated kernel launch, so an allocation
/// there turns an analytical simulator into a heap-churn benchmark.
/// The crate is also pure model code — it must never earn an unsafe
/// allowance.
#[test]
fn default_policy_covers_mtsim_engine() {
    let cfg = AuditConfig::default();
    let hot = cfg
        .hot_paths
        .iter()
        .find(|h| "crates/mtsim/src/engine.rs".ends_with(&h.file_suffix))
        .expect("mtsim engine must be a registered hot path");
    for f in ["Engine::step", "Engine::dispatch"] {
        assert!(
            hot.functions.iter().any(|g| g == f),
            "mtsim hot path must audit `{f}`"
        );
    }
    assert!(
        !cfg.allowed_unsafe.iter().any(|c| c == "gcnn-mtsim"),
        "the simulator is pure model code; it gets no unsafe allowance"
    );
}

/// The reachability allow-list can only shrink: each entry is a library
/// fn kept although nothing that ships reaches it, and each says why.
/// Deleting an entry's fn (or reaching it from a bin) already fails the
/// audit through config-staleness; this pins the count from above.
#[test]
fn keep_list_only_shrinks() {
    let cfg = AuditConfig::default();
    assert!(
        cfg.keep.len() <= 21,
        "crates/audit/keep.txt grew to {} entries; reach the fn from a live \
         root or delete it instead",
        cfg.keep.len()
    );
    for k in &cfg.keep {
        assert!(
            !k.why.trim().is_empty(),
            "keep entry `{}` gives no reason",
            k.item
        );
    }
}
