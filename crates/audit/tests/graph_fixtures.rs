//! Fixture tests for the call-graph lint families (transitive-arena,
//! lock-discipline, panic-freedom, config-staleness, reachability). Each fixture
//! under `tests/fixtures/` is fed through [`analyze_sources`] as a
//! miniature workspace with a narrow config; positive, negative, and
//! escape-hatch cases are asserted per family.

use std::path::Path;

use gcnn_audit::analysis::analyze_sources;
use gcnn_audit::{AuditConfig, Diagnostic, HotPath, Keep, Lint, SourceFile};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn sf(rel: &str, fixture_name: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        crate_name: "gcnn-fix".to_string(),
        is_root: false,
        src: fixture(fixture_name),
    }
}

/// A config with every list empty — tests opt into exactly the names
/// their fixture defines, so staleness never fires incidentally.
fn empty_cfg() -> AuditConfig {
    AuditConfig {
        allowed_unsafe: Vec::new(),
        hot_paths: Vec::new(),
        trace_fns: Vec::new(),
        lock_order: Vec::new(),
        condvars: Vec::new(),
        live_roots: Vec::new(),
        test_roots: Vec::new(),
        keep: Vec::new(),
    }
}

fn hot_root_cfg(file_suffix: &str) -> AuditConfig {
    AuditConfig {
        hot_paths: vec![HotPath {
            file_suffix: file_suffix.to_string(),
            functions: vec!["hot_root".to_string()],
        }],
        ..empty_cfg()
    }
}

fn by_lint(diags: &[Diagnostic], lint: Lint) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

// ---------------------------------------------------------------------------
// transitive-arena
// ---------------------------------------------------------------------------

#[test]
fn allocation_two_hops_from_root_is_caught() {
    let src = sf("crates/fix/src/hot.rs", "transitive_two_hop.rs");
    let cfg = hot_root_cfg("fix/src/hot.rs");
    let (diags, fns, edges) = analyze_sources(&[src], &cfg);
    assert_eq!(fns, 3);
    assert!(edges >= 2, "chain edges missing: {edges}");
    let arena = by_lint(&diags, Lint::TransitiveArena);
    assert_eq!(arena.len(), 1, "{diags:?}");
    assert!(arena[0].message.contains("`stage_two`"), "{}", arena[0]);
    assert!(
        arena[0]
            .message
            .contains("hot_root -> stage_one -> stage_two"),
        "diagnostic must name the concrete call chain: {}",
        arena[0]
    );
    assert!(arena[0].message.contains("`Vec::new`"));
}

#[test]
fn clean_call_chain_passes() {
    let src = sf("crates/fix/src/hot.rs", "transitive_clean.rs");
    let cfg = hot_root_cfg("fix/src/hot.rs");
    let (diags, _, _) = analyze_sources(&[src], &cfg);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn justified_cold_path_exempts_unjustified_is_flagged() {
    let src = sf("crates/fix/src/hot.rs", "transitive_cold_path.rs");
    let cfg = hot_root_cfg("fix/src/hot.rs");
    let (diags, _, _) = analyze_sources(&[src], &cfg);
    let arena = by_lint(&diags, Lint::TransitiveArena);
    // `build_plan`'s Vec::new is escaped with a justification; the only
    // finding is the bare marker on `shortcut` (whose to_vec is then
    // neither flagged nor traversed).
    assert_eq!(arena.len(), 1, "{diags:?}");
    assert!(
        arena[0].message.contains("`shortcut`") && arena[0].message.contains("justification"),
        "{}",
        arena[0]
    );
}

#[test]
fn transitive_pass_spans_files() {
    // Split root and allocating helper across two files: the call graph
    // must resolve across the workspace, not per file.
    let root = SourceFile {
        rel: "crates/fix/src/hot.rs".into(),
        crate_name: "gcnn-fix".into(),
        is_root: false,
        src: "pub fn hot_root(x: &mut [f32]) { helper_far(x); }\n".into(),
    };
    let helper = SourceFile {
        rel: "crates/fix/src/util.rs".into(),
        crate_name: "gcnn-fix".into(),
        is_root: false,
        src: "pub fn helper_far(x: &mut [f32]) { let _c = x.to_vec(); }\n".into(),
    };
    let cfg = hot_root_cfg("fix/src/hot.rs");
    let (diags, _, _) = analyze_sources(&[root, helper], &cfg);
    let arena = by_lint(&diags, Lint::TransitiveArena);
    assert_eq!(arena.len(), 1, "{diags:?}");
    assert_eq!(arena[0].file, "crates/fix/src/util.rs");
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

fn lock_cfg(order: &[&str], condvars: &[&str]) -> AuditConfig {
    AuditConfig {
        lock_order: order.iter().map(|s| s.to_string()).collect(),
        condvars: condvars.iter().map(|s| s.to_string()).collect(),
        ..empty_cfg()
    }
}

#[test]
fn inverted_lock_order_is_flagged_correct_order_passes() {
    let src = sf("crates/fix/src/locks.rs", "lock_order.rs");
    let (diags, _, _) = analyze_sources(&[src], &lock_cfg(&["counters", "gauges"], &[]));
    let locks = by_lint(&diags, Lint::LockDiscipline);
    assert_eq!(locks.len(), 1, "{diags:?}");
    assert!(
        locks[0].message.contains("`fn bad`")
            && locks[0].message.contains("counters")
            && locks[0].message.contains("gauges"),
        "{}",
        locks[0]
    );
}

#[test]
fn lock_unwrap_flagged_outside_tests_only() {
    let src = sf("crates/fix/src/locks.rs", "lock_unwrap.rs");
    let (diags, _, _) = analyze_sources(&[src], &lock_cfg(&[], &[]));
    let locks = by_lint(&diags, Lint::LockDiscipline);
    // `bad` (Mutex) and `rwlock_bad` (RwLock::read) are flagged; `good`
    // uses expect and the `#[test]` region unwrap is exempt.
    assert_eq!(locks.len(), 2, "{diags:?}");
    assert!(locks.iter().any(|d| d.message.contains("`fn bad`")));
    assert!(locks.iter().any(|d| d.message.contains("`fn rwlock_bad`")));
    assert!(locks.iter().all(|d| d.message.contains(".expect(")));
}

#[test]
fn condvar_wait_needs_a_predicate_loop() {
    let src = sf("crates/fix/src/locks.rs", "condvar_wait.rs");
    let (diags, _, _) = analyze_sources(&[src], &lock_cfg(&[], &["available"]));
    let locks = by_lint(&diags, Lint::LockDiscipline);
    // Only `bad`'s wait inside an `if` fires; the `while` and
    // `loop`-with-break forms both pass.
    assert_eq!(locks.len(), 1, "{diags:?}");
    assert!(
        locks[0].message.contains("`fn bad`") && locks[0].message.contains("spuriously"),
        "{}",
        locks[0]
    );
}

// ---------------------------------------------------------------------------
// panic-freedom
// ---------------------------------------------------------------------------

fn kernel_cfg() -> AuditConfig {
    AuditConfig {
        allowed_unsafe: vec!["gcnn-fix".to_string()],
        ..empty_cfg()
    }
}

#[test]
fn unguarded_kernel_sites_are_flagged() {
    let src = sf("crates/fix/src/kern.rs", "kernel_unguarded.rs");
    let (diags, _, _) = analyze_sources(&[src], &kernel_cfg());
    let panics = by_lint(&diags, Lint::PanicFreedom);
    // Two computed index sites plus one `.unwrap()`.
    assert_eq!(panics.len(), 3, "{diags:?}");
    assert!(panics.iter().any(|d| d.message.contains("`.unwrap()`")));
    assert!(panics.iter().any(|d| d.message.contains("slice indexing")));
    assert!(panics.iter().all(|d| d.message.contains("`fn kern`")));
}

#[test]
fn debug_assert_at_entry_guards_the_body() {
    let src = sf("crates/fix/src/kern.rs", "kernel_guarded.rs");
    let (diags, _, _) = analyze_sources(&[src], &kernel_cfg());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn bounds_comments_cover_individual_sites() {
    let src = sf("crates/fix/src/kern.rs", "kernel_bounds_comment.rs");
    let (diags, _, _) = analyze_sources(&[src], &kernel_cfg());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn kernel_lint_only_runs_in_unsafe_allowed_crates() {
    // The same unguarded kernel in a crate outside the allowlist is the
    // containment lint's problem (per-file pass), not panic-freedom's.
    let src = sf("crates/fix/src/kern.rs", "kernel_unguarded.rs");
    let (diags, _, _) = analyze_sources(&[src], &empty_cfg());
    assert!(by_lint(&diags, Lint::PanicFreedom).is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// config-staleness
// ---------------------------------------------------------------------------

#[test]
fn fully_resolving_config_is_not_stale() {
    let src = sf("crates/fix/src/ws.rs", "stale_workspace.rs");
    let cfg = AuditConfig {
        hot_paths: vec![HotPath {
            file_suffix: "fix/src/ws.rs".into(),
            functions: vec!["hot".into()],
        }],
        trace_fns: vec!["span".into()],
        lock_order: vec!["state".into()],
        condvars: vec!["available".into()],
        ..empty_cfg()
    };
    let (diags, _, _) = analyze_sources(&[src], &cfg);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn removed_hot_function_is_caught() {
    let src = sf("crates/fix/src/ws.rs", "stale_missing_fn.rs");
    let cfg = AuditConfig {
        hot_paths: vec![HotPath {
            file_suffix: "fix/src/ws.rs".into(),
            functions: vec!["hot".into()],
        }],
        ..empty_cfg()
    };
    let (diags, _, _) = analyze_sources(&[src], &cfg);
    let stale = by_lint(&diags, Lint::ConfigStaleness);
    assert_eq!(stale.len(), 1, "{diags:?}");
    assert!(
        stale[0].message.contains("`hot`") && stale[0].message.contains("renamed or removed"),
        "{}",
        stale[0]
    );
    // Staleness anchors at the compiled-in config, where the fix goes.
    assert_eq!(stale[0].file, "crates/audit/src/lib.rs");
}

#[test]
fn missing_file_lock_and_trace_fn_are_caught() {
    let src = sf("crates/fix/src/ws.rs", "stale_workspace.rs");
    let cfg = AuditConfig {
        hot_paths: vec![HotPath {
            file_suffix: "fix/src/gone.rs".into(),
            functions: vec!["hot".into()],
        }],
        trace_fns: vec!["gauge".into()],
        lock_order: vec!["phantom".into()],
        ..empty_cfg()
    };
    let (diags, _, _) = analyze_sources(&[src], &cfg);
    let stale = by_lint(&diags, Lint::ConfigStaleness);
    assert_eq!(stale.len(), 3, "{diags:?}");
    assert!(stale.iter().any(
        |d| d.message.contains("`fix/src/gone.rs`") && d.message.contains("no workspace file")
    ));
    assert!(stale
        .iter()
        .any(|d| d.message.contains("`phantom`") && d.message.contains("lock")));
    assert!(stale
        .iter()
        .any(|d| d.message.contains("`gauge`") && d.message.contains("trace fn")));
}

#[test]
fn declared_lock_fields_satisfy_the_lock_namespace() {
    // `outer`/`inner` resolve both as receivers and as Mutex fields.
    let src = sf("crates/fix/src/ws.rs", "stale_locks.rs");
    let cfg = AuditConfig {
        lock_order: vec!["outer".into(), "inner".into()],
        ..empty_cfg()
    };
    let (diags, _, _) = analyze_sources(&[src], &cfg);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// reachability (unreachable / test-only)
// ---------------------------------------------------------------------------

/// The library fixture, a bin that uses the live half of it, and a
/// measuring bin that is a test root.
fn reach_workspace(measure: &str) -> Vec<SourceFile> {
    let bin = |rel: &str, src: &str| SourceFile {
        rel: rel.to_string(),
        crate_name: "gcnn-fix".to_string(),
        is_root: true,
        src: src.to_string(),
    };
    vec![
        sf("crates/fix/src/lib.rs", "reach_lib.rs"),
        bin(
            "crates/fix/src/bin/main.rs",
            "fn main() {\n    let _ = gcnn_fix::generic_body(gcnn_fix::Wide);\n    \
             let _ = (gcnn_fix::SCALAR.body)(1.0);\n    let _ = gcnn_fix::GATES.len();\n    \
             let _ = gcnn_fix::through_macro();\n}\n",
        ),
        bin("crates/fix/src/bin/measure.rs", measure),
    ]
}

fn reach_cfg(keep: &[&str]) -> AuditConfig {
    AuditConfig {
        live_roots: vec!["crates/*/src/bin/".into()],
        test_roots: vec!["crates/fix/src/bin/measure.rs".into()],
        keep: keep
            .iter()
            .map(|item| Keep {
                item: item.to_string(),
                why: "fixture".into(),
            })
            .collect(),
        ..empty_cfg()
    }
}

#[test]
fn test_only_and_unreachable_are_told_apart() {
    let ws = reach_workspace("fn main() {}\n");
    let (diags, _, _) = analyze_sources(&ws, &reach_cfg(&["fix/src/lib.rs::kept_oracle"]));
    assert_eq!(diags.len(), 2, "{diags:?}");
    let test_only = by_lint(&diags, Lint::TestOnly);
    assert_eq!(test_only.len(), 1, "{diags:?}");
    assert!(
        test_only[0].message.contains("`fn only_tested`"),
        "{}",
        test_only[0]
    );
    assert!(
        test_only[0].message.contains("uses_the_test_helpers"),
        "{}",
        test_only[0]
    );
    let unreachable = by_lint(&diags, Lint::Unreachable);
    assert_eq!(unreachable.len(), 1, "{diags:?}");
    assert!(
        unreachable[0].message.contains("`fn nobody`"),
        "{}",
        unreachable[0]
    );
    assert_eq!(unreachable[0].file, "crates/fix/src/lib.rs");
}

#[test]
fn a_measuring_bin_is_a_test_root() {
    let ws = reach_workspace("fn main() {\n    let _ = gcnn_fix::nobody();\n}\n");
    let (diags, _, _) = analyze_sources(&ws, &reach_cfg(&["fix/src/lib.rs::kept_oracle"]));
    let test_only = by_lint(&diags, Lint::TestOnly);
    assert!(
        test_only.iter().any(|d| d.message.contains("`fn nobody`")),
        "{diags:?}"
    );
    assert!(by_lint(&diags, Lint::Unreachable).is_empty(), "{diags:?}");
}

#[test]
fn names_without_call_syntax_are_references() {
    // A static initializer, a const table and a macro argument each
    // reach their fn; none may read as dead.
    let ws = reach_workspace("fn main() {}\n");
    let (diags, _, _) = analyze_sources(&ws, &reach_cfg(&["fix/src/lib.rs::kept_oracle"]));
    for live in ["scalar_body", "gate_speedup", "macro_arg", "through_macro"] {
        assert!(
            !diags
                .iter()
                .any(|d| d.message.contains(&format!("`fn {live}`"))),
            "{live}: {diags:?}"
        );
    }
}

#[test]
fn generic_and_std_trait_methods_are_live() {
    let ws = reach_workspace("fn main() {}\n");
    let (diags, _, _) = analyze_sources(&ws, &reach_cfg(&["fix/src/lib.rs::kept_oracle"]));
    // `V::fma` reaches the impl's method and, through it, the trait's
    // declaration; `Display::fmt` is std's to call.
    for live in ["Wide::fma", "Lanes::fma", "Shown::fmt", "write_shown"] {
        assert!(
            !diags
                .iter()
                .any(|d| d.message.contains(&format!("`fn {live}`"))),
            "{live}: {diags:?}"
        );
    }
}

#[test]
fn stale_keep_entries_and_root_patterns_are_caught() {
    let ws = reach_workspace("fn main() {}\n");
    let mut cfg = reach_cfg(&[
        "fix/src/lib.rs::kept_oracle",
        "fix/src/lib.rs::deleted_long_ago",
        "fix/src/lib.rs::scalar_body",
    ]);
    cfg.live_roots.push("examples/".into());
    let (diags, _, _) = analyze_sources(&ws, &cfg);
    let stale = by_lint(&diags, Lint::ConfigStaleness);
    assert_eq!(stale.len(), 3, "{diags:?}");
    assert!(stale
        .iter()
        .any(|d| d.message.contains("`fix/src/lib.rs::deleted_long_ago`")
            && d.message.contains("resolves to no library fn")));
    assert!(stale
        .iter()
        .any(|d| d.message.contains("`fix/src/lib.rs::scalar_body`")
            && d.message.contains("live root now")));
    assert!(stale
        .iter()
        .any(|d| d.message.contains("`examples/`") && d.message.contains("matches no")));
    // Allow-list entries point at the list; root patterns at the config.
    for d in stale {
        let file = if d.message.contains("keep entry") {
            "crates/audit/keep.txt"
        } else {
            "crates/audit/src/lib.rs"
        };
        assert_eq!(d.file, file, "{d}");
    }
}
