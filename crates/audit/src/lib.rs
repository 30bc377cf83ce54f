//! # gcnn-audit
//!
//! Workspace soundness auditor — a two-pass, call-graph-aware static
//! analyzer. It walks every `.rs` file under `crates/`, `vendor/`, the
//! workspace `tests/`, and `examples/` (and reads `benchmark/src/` for
//! the call graph only); pass 1 ([`items`]) parses every
//! `fn` into a lightweight item table and resolves call sites into an
//! intra-workspace call graph, pass 2 ([`analysis`]) runs dataflow
//! lints over that graph alongside the original per-file token lints.
//!
//! Per-file lints (v1, unchanged semantics):
//!
//! 1. **safety-comment** — every `unsafe` block, `unsafe fn`, and
//!    `unsafe impl` must be preceded by a `// SAFETY:` justification
//!    (or a `# Safety` doc section for functions).
//! 2. **unsafe-containment** — `unsafe` is permitted only in the three
//!    kernel crates (`gcnn-tensor`, `gcnn-fft`, `gcnn-gemm`); every
//!    other crate root (and every example binary) must declare
//!    `#![forbid(unsafe_code)]`, and no `unsafe` token may appear
//!    anywhere else — integration tests, benches, and the workspace
//!    `tests/`/`examples/` trees included.
//! 3. **arena-discipline** — hot-path *root* functions may not call
//!    `Vec::new`, `vec![…]`, `.to_vec()` or `Box::new`; steady-state
//!    allocations must come from `gcnn_tensor::workspace`.
//! 4. **trace-naming** — string literals passed to `gcnn-trace` span /
//!    counter / gauge calls must follow the `subsystem.verb`
//!    convention (lowercase dot-separated segments such as
//!    `gemm.sgemm`). Applies to production code everywhere, including
//!    non-`#[test]` helpers in test and bench files.
//!
//! Call-graph lints (v2, see [`analysis`] for the full semantics):
//!
//! 5. **transitive-arena** — allocation reachability propagated from
//!    the configured roots through the call graph, with a
//!    `// AUDIT: cold-path — <why>` escape hatch.
//! 6. **lock-discipline** — lock-order violations per function body,
//!    `.lock().unwrap()` outside tests, `Condvar::wait` outside a
//!    predicate re-check loop.
//! 7. **panic-freedom** — `unwrap`/`expect`/`panic!`/slice indexing in
//!    `unsafe` / `#[target_feature]` kernel fns must be
//!    `debug_assert`-guarded or carry a SAFETY/bounds comment.
//! 8. **config-staleness** — every configured root, file, lock,
//!    condvar, trace fn, reachability root pattern and allow-list entry
//!    must resolve against the parsed workspace.
//! 9. **unreachable** / **test-only** — every library fn is reached
//!    from what ships (the bins, `examples/`, the benchmark harness under
//!    `benchmark/src/`, which is read for the graph only) or sits on the
//!    allow-list with a reason; see [`reach`] for the roots and what the
//!    name-based graph can and cannot see.
//!
//! The workspace vendors no parser crates, so the auditor runs on a
//! hand-rolled lexer ([`lexer`]) rather than `syn`. Style lints skip
//! `#[test]` / `#[cfg(test)]` regions; the soundness lints apply
//! everywhere (test code gets no soundness pass). Vendored crates get
//! the per-file lints only — the call graph stops at the workspace
//! boundary, since arena discipline is a policy about our code, not
//! upstream's.
//!
//! Run with `cargo run -p gcnn-audit` (human-readable, non-zero exit on
//! any diagnostic) or `cargo run -p gcnn-audit -- --format json` for
//! the machine-readable form CI uploads and the problem matcher
//! consumes. See `DESIGN.md` ("Soundness auditing") for the policy
//! rationale.

#![forbid(unsafe_code)]
// The auditor's own docs and diagnostics quote `// SAFETY:` syntax,
// which this clippy lint mistakes for misplaced safety comments.
#![allow(clippy::unnecessary_safety_comment)]

pub mod analysis;
pub mod items;
pub mod lexer;
pub mod reach;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub use analysis::SourceFile;
use lexer::{lex, Tok, TokKind};

/// The audit lints: four per-file token lints, four call-graph
/// dataflow lints and the two reachability verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// `unsafe` without a `// SAFETY:` / `# Safety` justification.
    SafetyComment,
    /// `unsafe` outside the kernel-crate allowlist, or a non-kernel
    /// crate root missing `#![forbid(unsafe_code)]`.
    UnsafeContainment,
    /// Heap allocation inside a configured hot-path root function.
    ArenaDiscipline,
    /// Trace span/counter literal violating `subsystem.verb`.
    TraceNaming,
    /// Heap allocation in a function *reachable* from a hot-path root
    /// (or an unjustified `// AUDIT: cold-path` escape).
    TransitiveArena,
    /// Lock-order violation, `.lock().unwrap()`, or a condvar wait
    /// outside a predicate re-check loop.
    LockDiscipline,
    /// Panic-capable site in an `unsafe`/`#[target_feature]` kernel fn
    /// without a `debug_assert` guard or bounds comment.
    PanicFreedom,
    /// A configured hot path, file, lock, condvar, or trace fn that no
    /// longer resolves against the parsed workspace.
    ConfigStaleness,
    /// A library fn no root reaches, test code included.
    Unreachable,
    /// A library fn only test code reaches.
    TestOnly,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Lint::SafetyComment => "safety-comment",
            Lint::UnsafeContainment => "unsafe-containment",
            Lint::ArenaDiscipline => "arena-discipline",
            Lint::TraceNaming => "trace-naming",
            Lint::TransitiveArena => "transitive-arena",
            Lint::LockDiscipline => "lock-discipline",
            Lint::PanicFreedom => "panic-freedom",
            Lint::ConfigStaleness => "config-staleness",
            Lint::Unreachable => "unreachable",
            Lint::TestOnly => "test-only",
        })
    }
}

/// One violation, formatted `path:line: [lint] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub lint: Lint,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A set of hot-path *root* functions in one file. Their own bodies
/// must not allocate (arena-discipline), and everything they reach
/// through the call graph is checked by the transitive-arena pass.
/// Function entries may be owner-qualified (`Engine::step`).
#[derive(Debug, Clone)]
pub struct HotPath {
    /// Matched against the end of the workspace-relative path.
    pub file_suffix: String,
    /// Root function names audited within that file.
    pub functions: Vec<String>,
}

/// Auditor policy. [`AuditConfig::default`] is the repo policy;
/// the fields are public so fixture tests can build narrower configs.
/// Every name-shaped field is validated by the config-staleness lint:
/// a root, lock, condvar, or trace fn that stops resolving against the
/// parsed workspace fails the audit rather than silently rotting.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Crates (by `Cargo.toml` package name) allowed to contain
    /// `unsafe`. Also the scope of the panic-freedom kernel lint.
    pub allowed_unsafe: Vec<String>,
    /// Hot-path roots: arena-discipline on their bodies, and the
    /// origin set of the transitive reachability pass.
    pub hot_paths: Vec<HotPath>,
    /// Function names whose first string-literal argument is a trace
    /// name subject to the naming convention.
    pub trace_fns: Vec<String>,
    /// Lock acquisition order, outermost first (receiver identifiers,
    /// e.g. the `batcher` in `shared.batcher.lock()`). Within any one
    /// function body, a configured lock may never be acquired after a
    /// lock that ranks below it.
    pub lock_order: Vec<String>,
    /// Condvar receiver identifiers whose `wait`/`wait_timeout` calls
    /// must sit inside a `while`/`loop` predicate re-check.
    pub condvars: Vec<String>,
    /// Path patterns ([`reach::path_matches`]) of the files whose every
    /// function is a live root of the reachability lint: what ships.
    /// Empty turns the lint off.
    pub live_roots: Vec<String>,
    /// Path patterns of files that only measure: their functions are
    /// test roots, and win over a [`AuditConfig::live_roots`] match.
    pub test_roots: Vec<String>,
    /// Library fns that stay although no live root reaches them; the
    /// default reads the committed list in `crates/audit/keep.txt`.
    pub keep: Vec<Keep>,
}

/// One allow-list entry of the reachability lint.
#[derive(Debug, Clone)]
pub struct Keep {
    /// `file_suffix.rs` (every fn of the file) or
    /// `file_suffix.rs::Owner::name` (one fn).
    pub item: String,
    /// Why it stays.
    pub why: String,
}

impl Default for AuditConfig {
    // AUDIT: cold-path — the config is built once per auditor run; it never
    // sits on an inference hot path.
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        AuditConfig {
            // The three kernel crates, and the vendored `rayon`: handing a
            // region's borrowed job to the pool's persistent workers needs
            // one lifetime-erasing `unsafe` block (`vendor/rayon/src/pool.rs`).
            allowed_unsafe: s(&["gcnn-tensor", "gcnn-fft", "gcnn-gemm", "rayon"]),
            hot_paths: vec![
                HotPath {
                    file_suffix: "conv/src/unroll.rs".into(),
                    functions: s(&["forward", "backward_data", "backward_filters"]),
                },
                HotPath {
                    file_suffix: "conv/src/fft_conv.rs".into(),
                    functions: s(&["forward", "backward_data", "backward_filters"]),
                },
                HotPath {
                    file_suffix: "gemm/src/sgemm.rs".into(),
                    functions: s(&["sgemm_blocked", "sgemm_blocked_cols"]),
                },
                HotPath {
                    file_suffix: "tensor/src/im2col.rs".into(),
                    functions: s(&["im2col_into", "col2im_from"]),
                },
                HotPath {
                    file_suffix: "tensor/src/nchwc.rs".into(),
                    functions: s(&[
                        "pack_nchwc_into",
                        "unpack_nchwc_from",
                        "pack_filters_into",
                        "repad_packed",
                    ]),
                },
                HotPath {
                    file_suffix: "conv/src/nchwc.rs".into(),
                    functions: s(&[
                        "forward_planes",
                        "fused_conv_relu",
                        "fused_conv_relu_pool",
                        "max_pool_tile",
                    ]),
                },
                HotPath {
                    file_suffix: "conv/src/layers/relu.rs".into(),
                    functions: s(&[
                        "ReluLayer::forward_in_place",
                        "ReluLayer::backward_in_place",
                    ]),
                },
                HotPath {
                    file_suffix: "conv/src/layers/pooling.rs".into(),
                    functions: s(&["PoolLayer::forward_values", "PoolLayer::pool"]),
                },
                HotPath {
                    file_suffix: "serve/src/batcher.rs".into(),
                    functions: s(&["offer", "pop_batch_into"]),
                },
                HotPath {
                    file_suffix: "serve/src/server.rs".into(),
                    functions: s(&["worker_loop"]),
                },
                HotPath {
                    file_suffix: "models/src/network.rs".into(),
                    functions: s(&["Network::infer_ws", "Network::forward_walk"]),
                },
                HotPath {
                    file_suffix: "mtsim/src/engine.rs".into(),
                    functions: s(&["Engine::step", "Engine::dispatch"]),
                },
            ],
            trace_fns: s(&["span", "counter", "counter_add", "counter_inc", "gauge_set"]),
            // Outermost first. The batcher mutex is the serving layer's
            // outer lock; the trace registry's maps come next (counters
            // are bumped while the batcher is held); the latency ring is
            // a leaf no other lock may be taken under.
            lock_order: s(&["batcher", "counters", "gauges", "spans", "latencies_ms"]),
            condvars: s(&["available"]),
            live_roots: s(&[
                "crates/*/src/bin/",
                "crates/audit/src/main.rs",
                "examples/",
                "benchmark/src/",
            ]),
            test_roots: s(&[
                "crates/bench/src/bin/perf_smoke.rs",
                "crates/bench/src/bin/ablations.rs",
            ]),
            keep: include_str!("../keep.txt")
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| {
                    let (item, why) = l.split_once(" — ").unwrap_or((l, ""));
                    Keep {
                        item: item.into(),
                        why: why.into(),
                    }
                })
                .collect(),
        }
    }
}

/// Summary of one [`audit_workspace`] run.
#[derive(Debug)]
pub struct AuditReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    /// Scan units: crates under `crates/` and `vendor/`, plus the
    /// workspace `tests/` and `examples/` trees (one unit each).
    pub crates_scanned: usize,
    /// Workspace-relative paths of every file visited, sorted.
    pub files: Vec<String>,
    /// `fn` items in the pass-1 table (workspace code only).
    pub fn_items: usize,
    /// Resolved intra-workspace call edges.
    pub call_edges: usize,
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Token-index ranges (inclusive) covered by `#[test]` / `#[cfg(test)]`
/// items, so style lints can skip test code.
pub fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Attribute body: tokens between the matching brackets.
        let attr_start = i + 2;
        let mut j = attr_start;
        let mut depth = 1usize;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            }
            j += 1;
        }
        let attr = &toks[attr_start..j.saturating_sub(1)];
        if !attr_is_test(attr) {
            i = j;
            continue;
        }
        // Body of the following item: first top-level `{…}`, unless a
        // top-level `;` ends the item first (e.g. `#[cfg(test)] use …;`).
        let mut k = j;
        let mut pdepth = 0i32;
        let mut body_start = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') {
                pdepth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                pdepth -= 1;
            } else if t.is_punct('{') && pdepth == 0 {
                body_start = Some(k);
                break;
            } else if t.is_punct(';') && pdepth == 0 {
                break;
            }
            k += 1;
        }
        let Some(bs) = body_start else {
            i = j;
            continue;
        };
        let mut bd = 0i32;
        let mut e = bs;
        while e < toks.len() {
            if toks[e].is_punct('{') {
                bd += 1;
            } else if toks[e].is_punct('}') {
                bd -= 1;
                if bd == 0 {
                    break;
                }
            }
            e += 1;
        }
        regions.push((i, e.min(toks.len().saturating_sub(1))));
        i = e + 1;
    }
    regions
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but NOT
/// `#[cfg(not(test))]`, whose body is precisely the non-test build.
fn attr_is_test(attr: &[Tok]) -> bool {
    if attr.len() == 1 && attr[0].is_ident("test") {
        return true;
    }
    if attr.first().map(|t| t.is_ident("cfg")) != Some(true) {
        return false;
    }
    let mut depth = 0i32;
    let mut not_depths: Vec<i32> = Vec::new();
    let mut k = 1;
    while k < attr.len() {
        let t = &attr[k];
        if t.is_ident("not") && k + 1 < attr.len() && attr[k + 1].is_punct('(') {
            depth += 1;
            not_depths.push(depth);
            k += 2;
            continue;
        }
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            if not_depths.last() == Some(&depth) {
                not_depths.pop();
            }
            depth -= 1;
        } else if t.is_ident("test") && not_depths.is_empty() {
            return true;
        }
        k += 1;
    }
    false
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx <= e)
}

// ---------------------------------------------------------------------------
// Lint 1: SAFETY comments
// ---------------------------------------------------------------------------

/// Scan the comment/attribute lines immediately above `line` (1-based)
/// for a safety justification (`// SAFETY:` or a `/// # Safety` doc
/// line). Attribute lines — including rustfmt-wrapped multi-line
/// attributes — are skipped so `#[cfg(…)]` between the comment and the
/// `unsafe` site does not break the association.
fn has_safety_above(lines: &[&str], line: usize) -> bool {
    let mut idx = line as isize - 2; // 0-based index of the line above
    while idx >= 0 {
        let t = lines[idx as usize].trim();
        if t.starts_with("//") {
            if t.to_ascii_lowercase().contains("safety") {
                return true;
            }
            idx -= 1;
        } else if t.starts_with("#[") || t.starts_with("#![") {
            idx -= 1;
        } else if t.ends_with(']') {
            // Possibly the closing line of a wrapped attribute: walk up
            // to its opening `#[`; bail if we hit something else first.
            let mut k = idx - 1;
            let mut opened = false;
            while k >= 0 {
                let u = lines[k as usize].trim();
                if u.starts_with("#[") || u.starts_with("#![") {
                    opened = true;
                    break;
                }
                if u.contains('{') || u.contains('}') || u.ends_with(';') || u.is_empty() {
                    break;
                }
                k -= 1;
            }
            if !opened {
                return false;
            }
            idx = k - 1;
        } else {
            return false;
        }
    }
    false
}

fn lint_safety_comments(file: &str, lines: &[&str], toks: &[Tok], out: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let next = toks.get(i + 1);
        let kind = match next {
            Some(n) if n.is_ident("fn") => "`unsafe fn`",
            Some(n) if n.is_ident("impl") => "`unsafe impl`",
            Some(n) if n.is_ident("trait") => "`unsafe trait`",
            Some(n) if n.is_ident("extern") => "`unsafe extern` block",
            _ => "`unsafe` block",
        };
        // Anchor the comment scan at the first token of the statement
        // (or match arm / call argument) containing the `unsafe`, so a
        // justification above `let x =` also covers an `unsafe` on the
        // rustfmt-wrapped continuation line.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') || p.is_punct(',') {
                break;
            }
            j -= 1;
        }
        // A justification may also sit on comment lines *inside* the
        // statement span — e.g. between a `#[cfg]` attribute and the
        // match arm it gates.
        let interior = (toks[j].line..t.line).any(|ln| {
            let l = lines.get(ln - 1).map(|l| l.trim()).unwrap_or("");
            l.starts_with("//") && l.to_ascii_lowercase().contains("safety")
        });
        if !interior && !has_safety_above(lines, toks[j].line) {
            out.push(Diagnostic {
                file: file.into(),
                line: t.line,
                lint: Lint::SafetyComment,
                message: format!(
                    "{kind} without a preceding `// SAFETY:` comment \
                     (or `# Safety` doc section) justifying it"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Lint 2: unsafe containment
// ---------------------------------------------------------------------------

fn lint_unsafe_containment(
    file: &str,
    crate_name: &str,
    is_crate_root: bool,
    toks: &[Tok],
    cfg: &AuditConfig,
    out: &mut Vec<Diagnostic>,
) {
    let allowed = cfg.allowed_unsafe.iter().any(|c| c == crate_name);
    if allowed {
        return;
    }
    for t in toks {
        if t.is_ident("unsafe") {
            out.push(Diagnostic {
                file: file.into(),
                line: t.line,
                lint: Lint::UnsafeContainment,
                message: format!(
                    "`unsafe` in crate `{crate_name}`, which is outside the \
                     kernel allowlist ({})",
                    cfg.allowed_unsafe.join(", ")
                ),
            });
        }
    }
    if is_crate_root && !has_forbid_unsafe(toks) {
        out.push(Diagnostic {
            file: file.into(),
            line: 1,
            lint: Lint::UnsafeContainment,
            message: format!(
                "crate root of `{crate_name}` must declare #![forbid(unsafe_code)]; \
                 unsafe is only permitted in {}",
                cfg.allowed_unsafe.join(", ")
            ),
        });
    }
}

/// Token-sequence search for `#![forbid(unsafe_code)]` (whitespace and
/// comments already stripped by the lexer).
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

// ---------------------------------------------------------------------------
// Lint 3: arena discipline
// ---------------------------------------------------------------------------

fn lint_arena_discipline(
    file: &str,
    toks: &[Tok],
    regions: &[(usize, usize)],
    cfg: &AuditConfig,
    out: &mut Vec<Diagnostic>,
) {
    let Some(hot) = cfg
        .hot_paths
        .iter()
        .find(|h| file.ends_with(&h.file_suffix))
    else {
        return;
    };
    // Config entries may be owner-qualified (`Engine::step`); the
    // per-file pass matches on the bare name — names are file-scoped.
    let bare = |f: &String| f.rsplit("::").next().unwrap_or(f).to_string();
    let mut i = 0;
    while i + 1 < toks.len() {
        let named_hot = toks[i].is_ident("fn")
            && toks[i + 1].kind == TokKind::Ident
            && hot.functions.iter().any(|f| bare(f) == toks[i + 1].text);
        if !named_hot || in_regions(regions, i) {
            i += 1;
            continue;
        }
        let fn_name = toks[i + 1].text.clone();
        // Body: first `{` outside the parameter parens.
        let mut k = i + 2;
        let mut pdepth = 0i32;
        while k < toks.len() {
            if toks[k].is_punct('(') || toks[k].is_punct('[') {
                pdepth += 1;
            } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                pdepth -= 1;
            } else if toks[k].is_punct('{') && pdepth == 0 {
                break;
            } else if toks[k].is_punct(';') && pdepth == 0 {
                break; // trait method declaration — no body to audit
            }
            k += 1;
        }
        if k >= toks.len() || !toks[k].is_punct('{') {
            i = k;
            continue;
        }
        let body_start = k;
        let mut bd = 0i32;
        let mut e = body_start;
        while e < toks.len() {
            if toks[e].is_punct('{') {
                bd += 1;
            } else if toks[e].is_punct('}') {
                bd -= 1;
                if bd == 0 {
                    break;
                }
            }
            e += 1;
        }
        for w in body_start..e.min(toks.len()) {
            let pat = banned_alloc_at(toks, w);
            if let Some(pat) = pat {
                out.push(Diagnostic {
                    file: file.into(),
                    line: toks[w].line,
                    lint: Lint::ArenaDiscipline,
                    message: format!(
                        "hot path `fn {fn_name}` allocates via {pat}; use the \
                         workspace arena (gcnn_tensor::workspace) instead"
                    ),
                });
            }
        }
        i = e + 1;
    }
}

/// The banned-allocation token patterns, reported at their first token.
pub(crate) fn banned_alloc_at(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = |d: usize| toks.get(i + d);
    let seq2 = |a: &str, b: char| toks[i].is_ident(a) && t(1).map(|x| x.is_punct(b)) == Some(true);
    let path2 = |a: &str, b: &str| {
        toks[i].is_ident(a)
            && t(1).map(|x| x.is_punct(':')) == Some(true)
            && t(2).map(|x| x.is_punct(':')) == Some(true)
            && t(3).map(|x| x.is_ident(b)) == Some(true)
    };
    if path2("Vec", "new") {
        Some("`Vec::new`")
    } else if path2("Box", "new") {
        Some("`Box::new`")
    } else if seq2("vec", '!') {
        Some("the `vec!` macro")
    } else if toks[i].is_punct('.') && t(1).map(|x| x.is_ident("to_vec")) == Some(true) {
        Some("`.to_vec()`")
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Lint 4: trace naming
// ---------------------------------------------------------------------------

/// `subsystem.verb`: at least two non-empty dot-separated segments of
/// `[a-z0-9_]`.
pub fn valid_trace_name(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn lint_trace_naming(
    file: &str,
    toks: &[Tok],
    regions: &[(usize, usize)],
    cfg: &AuditConfig,
    out: &mut Vec<Diagnostic>,
) {
    // Test and bench *regions* keep their short ad-hoc names, but the
    // files themselves are visited: a non-`#[test]` helper in an
    // integration test or a bench binary is production code and must
    // follow the convention.
    for i in 0..toks.len() {
        let is_trace_call = toks[i].kind == TokKind::Ident
            && cfg.trace_fns.iter().any(|f| *f == toks[i].text)
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            && toks.get(i + 2).map(|t| t.kind == TokKind::Str) == Some(true);
        if !is_trace_call || in_regions(regions, i) {
            continue;
        }
        let name = &toks[i + 2].text;
        if !valid_trace_name(name) {
            out.push(Diagnostic {
                file: file.into(),
                line: toks[i + 2].line,
                lint: Lint::TraceNaming,
                message: format!(
                    "trace name \"{name}\" violates the `subsystem.verb` convention \
                     (lowercase dot-separated segments, e.g. `gemm.sgemm`)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Per-file and workspace drivers
// ---------------------------------------------------------------------------

/// Audit one source file. `rel_path` is the workspace-relative path
/// with `/` separators (used for hot-path matching and reporting);
/// `crate_name` is the owning package name; `is_crate_root` marks
/// `src/lib.rs`, `src/main.rs`, and `src/bin/*.rs`, which the
/// containment lint requires to carry `#![forbid(unsafe_code)]`.
pub fn audit_file(
    rel_path: &str,
    src: &str,
    crate_name: &str,
    is_crate_root: bool,
    cfg: &AuditConfig,
) -> Vec<Diagnostic> {
    let toks = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let regions = test_regions(&toks);
    let mut out = Vec::new();
    lint_safety_comments(rel_path, &lines, &toks, &mut out);
    lint_unsafe_containment(rel_path, crate_name, is_crate_root, &toks, cfg, &mut out);
    lint_arena_discipline(rel_path, &toks, &regions, cfg, &mut out);
    lint_trace_naming(rel_path, &toks, &regions, cfg, &mut out);
    out
}

/// Audit every `.rs` file of every crate under `<root>/crates` and
/// `<root>/vendor`, plus the workspace-level `tests/` and `examples/`
/// trees. Paths containing `tests/fixtures/` are skipped — those are
/// the auditor's own deliberately-violating test inputs.
///
/// The per-file lints run on everything; the call-graph passes run on
/// the workspace's own code (vendored crates are external to the arena
/// and lock policies).
pub fn audit_workspace(root: &Path, cfg: &AuditConfig) -> std::io::Result<AuditReport> {
    let mut report = AuditReport {
        diagnostics: Vec::new(),
        files_scanned: 0,
        crates_scanned: 0,
        files: Vec::new(),
        fn_items: 0,
        call_edges: 0,
    };
    // Workspace sources for the call-graph passes, collected as we walk.
    let mut sources: Vec<SourceFile> = Vec::new();
    let visit = |report: &mut AuditReport,
                 sources: &mut Vec<SourceFile>,
                 f: &Path,
                 crate_name: &str,
                 is_root: bool,
                 graph: bool|
     -> std::io::Result<()> {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.contains("tests/fixtures/") {
            return Ok(());
        }
        let src = fs::read_to_string(f)?;
        report.files_scanned += 1;
        report.files.push(rel.clone());
        report
            .diagnostics
            .extend(audit_file(&rel, &src, crate_name, is_root, cfg));
        if graph {
            sources.push(SourceFile {
                rel,
                crate_name: crate_name.to_string(),
                is_root,
                src,
            });
        }
        Ok(())
    };
    for group in ["crates", "vendor"] {
        let dir = root.join(group);
        if !dir.is_dir() {
            continue;
        }
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        crate_dirs.sort();
        for cdir in crate_dirs {
            let name = package_name(&cdir.join("Cargo.toml"))?;
            report.crates_scanned += 1;
            let mut files = Vec::new();
            collect_rs(&cdir, &mut files)?;
            files.sort();
            for f in files {
                let is_root = is_crate_root(&f, &cdir);
                visit(
                    &mut report,
                    &mut sources,
                    &f,
                    &name,
                    is_root,
                    group == "crates",
                )?;
            }
        }
    }
    // Workspace-level integration tests and examples: one scan unit
    // each. Examples are standalone binaries, so each must carry
    // `#![forbid(unsafe_code)]` like any other non-kernel crate root;
    // test files are scanned for unsafe tokens and (non-test-region)
    // trace names but are not crate roots.
    for (dir_name, unit_name, files_are_roots) in [
        ("tests", "workspace-tests", false),
        ("examples", "workspace-examples", true),
    ] {
        let dir = root.join(dir_name);
        if !dir.is_dir() {
            continue;
        }
        report.crates_scanned += 1;
        let mut files = Vec::new();
        collect_rs(&dir, &mut files)?;
        files.sort();
        for f in files {
            visit(
                &mut report,
                &mut sources,
                &f,
                unit_name,
                files_are_roots,
                true,
            )?;
        }
    }
    // The benchmark harness, a workspace of its own that only links the
    // crates, is read for the call graph (its workloads are live roots)
    // and audited by no per-file lint.
    let mut bench = Vec::new();
    if root.join("benchmark/src").is_dir() {
        collect_rs(&root.join("benchmark/src"), &mut bench)?;
    }
    bench.sort();
    for f in bench {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy();
        sources.push(SourceFile {
            rel: rel.replace('\\', "/"),
            crate_name: "gcnn-benchmark".into(),
            is_root: false,
            src: fs::read_to_string(&f)?,
        });
    }
    let (graph_diags, fn_items, call_edges) = analysis::analyze_sources(&sources, cfg);
    report.diagnostics.extend(graph_diags);
    report.fn_items = fn_items;
    report.call_edges = call_edges;
    report.files.sort();
    report
        .diagnostics
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(report)
}

/// Serialize a report as the machine-readable diagnostics document the
/// CI audit job uploads (`--format json`). Hand-rolled — the auditor
/// stays dependency-free — with full string escaping.
pub fn report_to_json(report: &AuditReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str("  \"tool\": \"gcnn-audit\",\n  \"schema_version\": 2,\n");
    out.push_str(&format!(
        "  \"crates_scanned\": {},\n  \"files_scanned\": {},\n  \"fn_items\": {},\n  \"call_edges\": {},\n",
        report.crates_scanned, report.files_scanned, report.fn_items, report.call_edges
    ));
    out.push_str(&format!(
        "  \"violations\": {},\n  \"diagnostics\": [",
        report.diagnostics.len()
    ));
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"message\": {}}}",
            json_str(&d.file),
            d.line,
            json_str(&d.lint.to_string()),
            json_str(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string literal with escaping for quotes, backslashes, and
/// control characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn is_crate_root(file: &Path, crate_dir: &Path) -> bool {
    file == crate_dir.join("src/lib.rs")
        || file == crate_dir.join("src/main.rs")
        || file.parent() == Some(&crate_dir.join("src/bin"))
}

/// First `name = "…"` in the manifest — enough for this workspace's
/// plain manifests (no parser crates available).
fn package_name(manifest: &Path) -> std::io::Result<String> {
    let text = fs::read_to_string(manifest)?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                return Ok(v.to_string());
            }
        }
    }
    Ok(manifest
        .parent()
        .and_then(|p| p.file_name())
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref() == Some("target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs") == Some(true) {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AuditConfig {
        AuditConfig::default()
    }

    #[test]
    fn undocumented_unsafe_block_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let d = audit_file("crates/tensor/src/x.rs", src, "gcnn-tensor", false, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, Lint::SafetyComment);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn documented_unsafe_block_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        let d = audit_file("crates/tensor/src/x.rs", src, "gcnn-tensor", false, &cfg());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn safety_comment_reaches_through_cfg_attributes() {
        let src = "fn f() {\n    match isa {\n        // SAFETY: detected at runtime.\n        #[cfg(target_arch = \"x86_64\")]\n        Isa::Avx2 => unsafe { go() },\n        _ => {}\n    }\n}\n";
        let d = audit_file("crates/tensor/src/x.rs", src, "gcnn-tensor", false, &cfg());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_fn_requires_safety_doc() {
        let bad = "pub unsafe fn k() {}\n";
        let good = "/// # Safety\n/// Caller must check the CPU.\npub unsafe fn k() {}\n";
        assert_eq!(
            audit_file("crates/fft/src/x.rs", bad, "gcnn-fft", false, &cfg()).len(),
            1
        );
        assert!(audit_file("crates/fft/src/x.rs", good, "gcnn-fft", false, &cfg()).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_is_ignored() {
        let src = "// unsafe is discussed here\nfn f() { let s = \"unsafe\"; let _ = s; }\n";
        let d = audit_file("crates/conv/src/x.rs", src, "gcnn-conv", false, &cfg());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn containment_flags_unsafe_outside_allowlist() {
        let src = "// SAFETY: not actually fine.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = audit_file("crates/conv/src/x.rs", src, "gcnn-conv", false, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, Lint::UnsafeContainment);
    }

    #[test]
    fn crate_root_outside_allowlist_needs_forbid() {
        let bare = "pub fn f() {}\n";
        let d = audit_file("crates/conv/src/lib.rs", bare, "gcnn-conv", true, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, Lint::UnsafeContainment);
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(audit_file("crates/conv/src/lib.rs", ok, "gcnn-conv", true, &cfg()).is_empty());
    }

    #[test]
    fn arena_lint_flags_alloc_in_hot_fn_only() {
        let src = "fn forward() {\n    let v = vec![0.0f32; 4];\n    let _ = v;\n}\nfn elsewhere() { let _ = vec![1]; }\n";
        let d = audit_file("crates/conv/src/unroll.rs", src, "gcnn-conv", false, &cfg());
        let arena: Vec<_> = d
            .iter()
            .filter(|x| x.lint == Lint::ArenaDiscipline)
            .collect();
        assert_eq!(arena.len(), 1, "{d:?}");
        assert_eq!(arena[0].line, 2);
    }

    #[test]
    fn arena_lint_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn forward() { let _ = Vec::<f32>::new(); }\n}\n";
        let d = audit_file("crates/conv/src/unroll.rs", src, "gcnn-conv", false, &cfg());
        assert!(d.iter().all(|x| x.lint != Lint::ArenaDiscipline), "{d:?}");
    }

    #[test]
    fn trace_names_must_be_dotted_lowercase() {
        assert!(valid_trace_name("gemm.sgemm"));
        assert!(valid_trace_name("autotune.cache.hits"));
        assert!(!valid_trace_name("sgemm"));
        assert!(!valid_trace_name("Gemm.sgemm"));
        assert!(!valid_trace_name("gemm."));
        assert!(!valid_trace_name(".sgemm"));
        assert!(!valid_trace_name("gemm sgemm"));
    }

    #[test]
    fn trace_lint_flags_bad_span_name() {
        let src = "fn f() { let _s = gcnn_trace::span(\"sgemm\"); }\n";
        let d = audit_file("crates/gemm/src/x.rs", src, "gcnn-gemm", false, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, Lint::TraceNaming);
    }

    #[test]
    fn trace_lint_skips_cfg_not_test_is_still_checked() {
        // not(test) code is production code in disguise — still linted.
        let src = "#[cfg(not(test))]\nfn f() { let _s = span(\"bad\"); }\n";
        let d = audit_file("crates/trace/src/x.rs", src, "gcnn-trace", false, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, Lint::TraceNaming);
    }

    #[test]
    fn trace_lint_skips_test_regions_but_not_test_file_helpers() {
        // A `#[test]` fn in an integration-test file keeps its ad-hoc
        // span names...
        let in_region = "#[test]\nfn t() { let _s = span(\"bad\"); }\n";
        assert!(audit_file(
            "crates/gemm/tests/t.rs",
            in_region,
            "gcnn-gemm",
            false,
            &cfg()
        )
        .is_empty());
        // ...but a bare helper fn in the same file is production code
        // for naming purposes: test files are now visited.
        let helper = "fn f() { let _s = span(\"bad\"); }\n";
        for rel in ["crates/gemm/tests/t.rs", "crates/bench/benches/b.rs"] {
            let diags = audit_file(rel, helper, "gcnn-gemm", false, &cfg());
            assert_eq!(diags.len(), 1, "{rel}: {diags:?}");
            assert_eq!(diags[0].lint, Lint::TraceNaming);
        }
    }
}
