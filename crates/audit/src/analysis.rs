//! Pass 2 of the two-pass analyzer: workspace-wide dataflow lints over
//! the call graph built from the pass-1 item table.
//!
//! Four lint families run here, and the reachability lint of
//! [`crate::reach`] over its own wider graph (the per-file token lints
//! stay in the crate root):
//!
//! * **transitive-arena** — allocation reachability. The configured
//!   hot paths are *roots*; a breadth-first walk over the call graph
//!   flags banned allocation patterns in every function reachable from
//!   a root, so a helper that allocates three calls deep is caught
//!   without anyone registering it. A `// AUDIT: cold-path — <why>`
//!   comment on a function exempts it *and* stops traversal through it;
//!   the justification text is mandatory.
//! * **lock-discipline** — `.lock()/.read()/.write()` results must not
//!   be `.unwrap()`ed outside tests (a poisoned lock deserves a named
//!   `.expect`); configured locks must be acquired in the
//!   [`AuditConfig::lock_order`] order within any one function body;
//!   `Condvar::wait` / `wait_timeout` must sit inside a `while`/`loop`
//!   that re-checks its predicate (spurious wakeups).
//! * **panic-freedom** — `unwrap`/`expect`/`panic!` and slice indexing
//!   inside `unsafe fn` / `#[target_feature]` kernel functions must be
//!   preceded by a `debug_assert` in the same body or carry a
//!   SAFETY/bounds comment within three lines above the site.
//! * **config-staleness** — every configured hot-path file and
//!   function, lock name, condvar name, and trace function must resolve
//!   against the parsed workspace (item table / observed lock
//!   receivers), so the lint config can never silently rot.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Range;

use crate::items::{call_sites, parse_fns, CallSite, FnItem};
use crate::lexer::{lex, Tok, TokKind};
use crate::{banned_alloc_at, test_regions, AuditConfig, Diagnostic, Lint};

/// One source file handed to the analyzer. `rel` is the
/// workspace-relative path with `/` separators.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub rel: String,
    pub crate_name: String,
    pub is_root: bool,
    pub src: String,
}

pub(crate) struct FileData {
    pub rel: String,
    pub crate_name: String,
    pub toks: Vec<Tok>,
    pub lines: Vec<String>,
    /// `#[test]` / `#[cfg(test)]` token ranges.
    pub regions: Vec<(usize, usize)>,
    /// Whole file is outside the library: test, bench, example or
    /// benchmark-harness code.
    pub test_file: bool,
    /// Library code: neither a test file nor a bin (`src/bin/`,
    /// `src/main.rs`).
    pub library: bool,
}

/// The pass-1 product: parsed files, the fn item table, the resolved
/// call graph, and the observed lock/condvar receiver names.
pub struct WorkspaceIndex {
    pub(crate) files: Vec<FileData>,
    pub fns: Vec<FnItem>,
    /// `edges[f]` = indices of fns the body of `fns[f]` may call.
    pub edges: Vec<Vec<usize>>,
    /// Identifiers observed as `.lock()`/`.read()`/`.write()`/`.wait*()`
    /// receivers or declared as `Mutex`/`RwLock`/`Condvar` fields.
    pub lock_names_seen: BTreeSet<String>,
    pub call_edge_count: usize,
}

fn rel_is_bin(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.ends_with("/src/main.rs")
}

fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("benchmark/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

impl WorkspaceIndex {
    /// Build the item table and call graph for a set of source files.
    pub fn build(sources: &[SourceFile]) -> WorkspaceIndex {
        let mut files = Vec::with_capacity(sources.len());
        let mut fns: Vec<FnItem> = Vec::new();
        for (fi, s) in sources.iter().enumerate() {
            let toks = lex(&s.src);
            let regions = test_regions(&toks);
            let test_file = is_test_path(&s.rel);
            fns.extend(parse_fns(fi, &toks, &regions, test_file));
            files.push(FileData {
                rel: s.rel.clone(),
                crate_name: s.crate_name.clone(),
                toks,
                lines: s.src.lines().map(|l| l.to_string()).collect(),
                regions,
                test_file,
                library: !test_file && !rel_is_bin(&s.rel),
            });
        }

        // Name → production fn indices, for call resolution.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !f.in_test {
                by_name.entry(f.name.as_str()).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut call_edge_count = 0;
        for (i, f) in fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let Some(body) = f.body else { continue };
            let fd = &files[f.file];
            for c in call_sites(&fd.toks, body) {
                let mut targets = resolve(&c, f, &fns, &by_name, &files);
                targets.retain(|&t| t != i);
                call_edge_count += targets.len();
                edges[i].extend(targets);
            }
            edges[i].sort_unstable();
            edges[i].dedup();
        }

        let mut lock_names_seen = BTreeSet::new();
        for fd in &files {
            collect_lock_names(&fd.toks, &mut lock_names_seen);
        }

        WorkspaceIndex {
            files,
            fns,
            edges,
            lock_names_seen,
            call_edge_count,
        }
    }

    pub(crate) fn qname(&self, i: usize) -> String {
        self.fns[i].qname()
    }
}

/// Resolve one call site to item-table candidates via the narrowest
/// non-empty scope tier: owner-qualified match, same file, same crate,
/// whole workspace. A narrower tier with a candidate hides the wider
/// ones, so a call can miss its real callee in another crate; the
/// transitive-arena pass accepts that, the reachability lint does not
/// use these edges. Both graphs share [`scoped`].
fn resolve(
    c: &CallSite,
    caller: &FnItem,
    fns: &[FnItem],
    by_name: &HashMap<&str, Vec<usize>>,
    files: &[FileData],
) -> Vec<usize> {
    let Some(cands) = by_name.get(c.name.as_str()) else {
        return Vec::new();
    };
    let body = caller.body.map(|(s, e)| s..e);
    let cands = scoped(c, caller.file, body, cands.clone(), fns, files);
    if let Some(q) = &c.qualifier {
        let owned: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&t| fns[t].owner.as_deref() == Some(q.as_str()))
            .collect();
        if !owned.is_empty() {
            return owned;
        }
    }
    narrowest(cands, fns, files, caller.file)
}

/// The `cands` named like the site `c` in `file` that it may mean, by
/// the rules both call graphs share. Library code never names a fn of a
/// bin, test, example or benchmark file (those are other crates). A bare
/// `name` names no method (Rust has no bare method call): it goes to the
/// free fns and the fns nested in `body`, the enclosing fn's body (none
/// for a name outside any fn), or nowhere when an earlier `let` in
/// `body` binds `name` (a closure or fn value).
pub(crate) fn scoped(
    c: &CallSite,
    file: usize,
    body: Option<Range<usize>>,
    mut cands: Vec<usize>,
    fns: &[FnItem],
    files: &[FileData],
) -> Vec<usize> {
    if files[file].library {
        cands.retain(|&t| files[fns[t].file].library);
    }
    if c.qualifier.is_some() || c.is_method {
        return cands;
    }
    let body = body.unwrap_or_default();
    if !body.is_empty() && let_bound(&files[file].toks, body.start..c.tok, &c.name) {
        return Vec::new();
    }
    let nested = |f: &FnItem| f.file == file && body.contains(&f.fn_tok);
    cands.retain(|&t| {
        let f = &fns[t];
        (f.owner.is_none() && f.trait_name.is_none()) || nested(f)
    });
    cands
}

/// The site `name` at `span.end` is bound by a `let` in `span`: it is
/// the binding itself, or that `let` statement ends before it.
fn let_bound(toks: &[Tok], span: Range<usize>, name: &str) -> bool {
    span.clone().any(|i| {
        let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.is_ident("mut")));
        toks[i].is_ident("let")
            && (j == span.end
                || j < span.end
                    && toks[j].is_ident(name)
                    && toks[j..span.end].iter().any(|t| t.is_punct(';')))
    })
}

/// The `cands` in the narrowest non-empty tier around `file`: the same
/// file, the same crate, then the whole workspace.
pub(crate) fn narrowest(
    cands: Vec<usize>,
    fns: &[FnItem],
    files: &[FileData],
    file: usize,
) -> Vec<usize> {
    let krate = &files[file].crate_name;
    let tiers: [&dyn Fn(&FnItem) -> bool; 2] =
        [&|f| f.file == file, &|f| &files[f.file].crate_name == krate];
    for tier in tiers {
        let hits: Vec<usize> = cands.iter().copied().filter(|&t| tier(&fns[t])).collect();
        if !hits.is_empty() {
            return hits;
        }
    }
    cands
}

/// Receivers of lock-shaped calls plus `Mutex`/`RwLock`/`Condvar`
/// field declarations — the namespace the configured lock names must
/// resolve against.
fn collect_lock_names(toks: &[Tok], out: &mut BTreeSet<String>) {
    for i in 2..toks.len() {
        let t = &toks[i];
        let recv_call = t.kind == TokKind::Ident
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && toks.get(i + 1).map(|x| x.is_punct('(')) == Some(true);
        if recv_call
            && [
                "lock",
                "read",
                "write",
                "wait",
                "wait_timeout",
                "wait_while",
            ]
            .iter()
            .any(|m| t.is_ident(m))
        {
            out.insert(toks[i - 2].text.clone());
        }
        // `name: Mutex<…>` / `name: RwLock<…>` / `name: Condvar` fields.
        if (t.is_ident("Mutex") || t.is_ident("RwLock") || t.is_ident("Condvar"))
            && toks[i - 1].is_punct(':')
            && toks[i - 2].kind == TokKind::Ident
        {
            out.insert(toks[i - 2].text.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Cold-path escape hatch
// ---------------------------------------------------------------------------

pub(crate) struct Escape {
    pub line: usize,
    pub justified: bool,
}

/// Scan the comment/attribute lines immediately above a fn declaration
/// for `// AUDIT: cold-path`. The marker must carry a justification on
/// the same line (text after `cold-path` beyond separators).
pub(crate) fn cold_path_escape(lines: &[String], decl_line: usize) -> Option<Escape> {
    let mut idx = decl_line as isize - 2; // 0-based line above the decl
    while idx >= 0 {
        let t = lines[idx as usize].trim();
        if t.starts_with("//") {
            if let Some(pos) = t.find("AUDIT:") {
                let rest = t[pos + "AUDIT:".len()..].trim_start();
                if let Some(tail) = rest.strip_prefix("cold-path") {
                    let why = tail.trim_matches(|c: char| {
                        c.is_whitespace() || c == '—' || c == '-' || c == ':' || c == ','
                    });
                    return Some(Escape {
                        line: idx as usize + 1,
                        justified: !why.is_empty(),
                    });
                }
            }
            idx -= 1;
        } else if t.starts_with("#[") || t.starts_with("#![") || t.ends_with(']') {
            idx -= 1;
        } else {
            return None;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Lint family 1: transitive arena discipline
// ---------------------------------------------------------------------------

/// Resolve the configured hot-path roots against the item table.
/// Returns root fn indices; unresolvable entries become
/// `config-staleness` diagnostics (see [`lint_config_staleness`]).
pub(crate) fn resolve_roots(ix: &WorkspaceIndex, cfg: &AuditConfig) -> Vec<usize> {
    let mut roots = Vec::new();
    for hp in &cfg.hot_paths {
        let file_ids: Vec<usize> = ix
            .files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.rel.ends_with(&hp.file_suffix))
            .map(|(i, _)| i)
            .collect();
        for name in &hp.functions {
            let (owner, bare) = match name.split_once("::") {
                Some((o, b)) => (Some(o), b),
                None => (None, name.as_str()),
            };
            for (i, f) in ix.fns.iter().enumerate() {
                if f.name == bare
                    && !f.in_test
                    && file_ids.contains(&f.file)
                    && owner.is_none_or(|o| f.owner.as_deref() == Some(o))
                {
                    roots.push(i);
                }
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

pub(crate) fn lint_transitive_arena(
    ix: &WorkspaceIndex,
    roots: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    // BFS with parent tracking so each diagnostic can name one concrete
    // call chain from a root.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut origin: HashMap<usize, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if origin.insert(r, r).is_none() {
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        let item = &ix.fns[f];
        let fd = &ix.files[item.file];
        let is_root = roots.contains(&f);
        if !is_root {
            if let Some(esc) = cold_path_escape(&fd.lines, item.line) {
                if !esc.justified {
                    out.push(Diagnostic {
                        file: fd.rel.clone(),
                        line: esc.line,
                        lint: Lint::TransitiveArena,
                        message: format!(
                            "`// AUDIT: cold-path` on `{}` must carry a justification \
                             on the same line (why is this allocation acceptable?)",
                            item.qname()
                        ),
                    });
                }
                // Escaped: neither checked nor traversed through.
                continue;
            }
            // The roots' own bodies are covered by the per-file
            // arena-discipline lint; here we check everything they reach.
            if let Some(body) = item.body {
                for w in body.0..body.1 {
                    if let Some(pat) = banned_alloc_at(&fd.toks, w) {
                        out.push(Diagnostic {
                            file: fd.rel.clone(),
                            line: fd.toks[w].line,
                            lint: Lint::TransitiveArena,
                            message: format!(
                                "`{}` allocates via {pat} and is reachable from hot root \
                                 `{}` (call chain: {}); use the workspace arena or mark it \
                                 `// AUDIT: cold-path — <why>`",
                                item.qname(),
                                ix.qname(origin[&f]),
                                chain(ix, &parent, roots, f),
                            ),
                        });
                    }
                }
            }
        }
        for &callee in &ix.edges[f] {
            if ix.fns[callee].in_test {
                continue;
            }
            let root_of_f = origin[&f];
            if let std::collections::hash_map::Entry::Vacant(e) = origin.entry(callee) {
                e.insert(root_of_f);
                parent.insert(callee, f);
                queue.push_back(callee);
            }
        }
    }
}

fn chain(
    ix: &WorkspaceIndex,
    parent: &HashMap<usize, usize>,
    roots: &[usize],
    mut f: usize,
) -> String {
    let mut names = vec![ix.qname(f)];
    while !roots.contains(&f) {
        match parent.get(&f) {
            Some(&p) => {
                names.push(ix.qname(p));
                f = p;
            }
            None => break,
        }
    }
    names.reverse();
    names.join(" -> ")
}

// ---------------------------------------------------------------------------
// Lint family 2: lock discipline
// ---------------------------------------------------------------------------

pub(crate) fn lint_lock_discipline(
    ix: &WorkspaceIndex,
    cfg: &AuditConfig,
    out: &mut Vec<Diagnostic>,
) {
    for f in &ix.fns {
        if f.in_test {
            continue;
        }
        let Some(body) = f.body else { continue };
        let fd = &ix.files[f.file];
        if fd.test_file {
            continue;
        }
        lock_lints_in_body(fd, f, body, cfg, out);
    }
}

fn lock_lints_in_body(
    fd: &FileData,
    f: &FnItem,
    body: (usize, usize),
    cfg: &AuditConfig,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &fd.toks;
    let loops = loop_spans(toks, body);
    // Configured-lock acquisitions seen so far in this body, as
    // (rank, receiver). The heuristic is function-body granularity, as
    // documented: we cannot see guard drops, so an acquisition of an
    // outer lock after an inner one anywhere in the same body is
    // flagged even if the inner guard was already released.
    let mut held: Vec<(usize, String)> = Vec::new();
    let mut i = body.0 + 1;
    while i < body.1 {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !toks[i - 1].is_punct('.') {
            i += 1;
            continue;
        }
        let recv = if toks[i - 2].kind == TokKind::Ident {
            Some(toks[i - 2].text.as_str())
        } else {
            None
        };
        let is_lock = t.is_ident("lock") && toks.get(i + 1).map(|x| x.is_punct('(')) == Some(true);
        // Empty parens distinguish `RwLock::{read,write}` from
        // `io::{Read,Write}` methods, which always take a buffer.
        let is_rw = (t.is_ident("read") || t.is_ident("write"))
            && toks.get(i + 1).map(|x| x.is_punct('(')) == Some(true)
            && toks.get(i + 2).map(|x| x.is_punct(')')) == Some(true);
        if is_lock || is_rw {
            // a) ordering among configured locks.
            if let Some(recv) = recv {
                if let Some(rank) = cfg.lock_order.iter().position(|n| n == recv) {
                    if let Some((prev_rank, prev_name)) =
                        held.iter().find(|(r, _)| *r > rank).cloned()
                    {
                        out.push(Diagnostic {
                            file: fd.rel.clone(),
                            line: t.line,
                            lint: Lint::LockDiscipline,
                            message: format!(
                                "`fn {}` acquires `{recv}` after `{prev_name}` in the same \
                                 body, against the configured lock order ({}); inner locks \
                                 ({} rank {prev_rank}) must never be held when taking an \
                                 outer one (rank {rank})",
                                f.qname(),
                                cfg.lock_order.join(" > "),
                                prev_name,
                            ),
                        });
                    }
                    held.push((rank, recv.to_string()));
                }
            }
            // b) unwrap on a poisoned-lock result. Only zero-argument
            // `lock()` / `read()` / `write()` are std lock acquisitions;
            // a custom `lock(key)` is not.
            let close = i + 2;
            if toks.get(close).map(|x| x.is_punct(')')) != Some(true) {
                i += 1;
                continue;
            }
            if toks.get(close + 1).map(|x| x.is_punct('.')) == Some(true)
                && toks.get(close + 2).map(|x| x.is_ident("unwrap")) == Some(true)
            {
                out.push(Diagnostic {
                    file: fd.rel.clone(),
                    line: t.line,
                    lint: Lint::LockDiscipline,
                    message: format!(
                        "`fn {}` calls `.{}().unwrap()`; poisoned-lock results outside \
                         tests must use `.expect(\"…\")` with a message naming the lock",
                        f.qname(),
                        t.text,
                    ),
                });
            }
        }
        // c) Condvar waits must re-check their predicate in a loop.
        let is_wait = (t.is_ident("wait") || t.is_ident("wait_timeout"))
            && toks.get(i + 1).map(|x| x.is_punct('(')) == Some(true)
            && recv.is_some_and(|r| cfg.condvars.iter().any(|c| c == r));
        if is_wait && !loops.iter().any(|&(s, e)| i > s && i < e) {
            out.push(Diagnostic {
                file: fd.rel.clone(),
                line: t.line,
                lint: Lint::LockDiscipline,
                message: format!(
                    "`fn {}` calls `{}.{}` outside a `while`/`loop` body; condition \
                     variables wake spuriously, so the predicate must be re-checked \
                     in a loop around the wait",
                    f.qname(),
                    recv.unwrap_or("condvar"),
                    t.text,
                ),
            });
        }
        i += 1;
    }
}

/// Token spans of `while … {…}` and `loop {…}` bodies inside `body`.
fn loop_spans(toks: &[Tok], body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = body.0 + 1;
    while i < body.1 {
        if toks[i].is_ident("while") || toks[i].is_ident("loop") {
            // Find the body `{` (immediately next for `loop`; past the
            // condition — which cannot contain a bare struct literal —
            // for `while`).
            let mut k = i + 1;
            let mut pdepth = 0i32;
            while k < body.1 {
                if toks[k].is_punct('(') || toks[k].is_punct('[') {
                    pdepth += 1;
                } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                    pdepth -= 1;
                } else if toks[k].is_punct('{') && pdepth == 0 {
                    break;
                }
                k += 1;
            }
            let mut bd = 0i32;
            let mut e = k;
            while e <= body.1 {
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
            spans.push((k, e.min(body.1)));
        }
        i += 1;
    }
    spans
}

// ---------------------------------------------------------------------------
// Lint family 3: panic-freedom in kernel fns
// ---------------------------------------------------------------------------

pub(crate) fn lint_panic_freedom(
    ix: &WorkspaceIndex,
    cfg: &AuditConfig,
    out: &mut Vec<Diagnostic>,
) {
    for f in &ix.fns {
        if f.in_test || !(f.is_unsafe || f.target_feature) {
            continue;
        }
        let fd = &ix.files[f.file];
        if fd.test_file || !cfg.allowed_unsafe.contains(&fd.crate_name) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let toks = &fd.toks;
        // Any debug_assert earlier in the body counts as a guard for
        // sites after it — the kernels assert their preconditions at
        // entry and then index freely within the asserted extents.
        let guarded_from = toks[body.0..body.1]
            .iter()
            .position(|t| t.kind == TokKind::Ident && t.text.starts_with("debug_assert"))
            .map_or(usize::MAX, |p| body.0 + p);
        for w in body.0 + 1..body.1 {
            let t = &toks[w];
            let site = panic_site_at(toks, w);
            let Some(site) = site else { continue };
            if w > guarded_from || has_bounds_comment(&fd.lines, t.line) {
                continue;
            }
            out.push(Diagnostic {
                file: fd.rel.clone(),
                line: t.line,
                lint: Lint::PanicFreedom,
                message: format!(
                    "{site} in kernel `fn {}` ({}) is neither preceded by a \
                     `debug_assert` in this body nor covered by a SAFETY/bounds \
                     comment within 3 lines above; kernels must not panic in release",
                    f.qname(),
                    if f.target_feature {
                        "#[target_feature]"
                    } else {
                        "unsafe fn"
                    },
                ),
            });
        }
    }
}

/// A panic-capable site: `.unwrap()`, `.expect(…)`, `panic!`, or slice
/// indexing (`expr[…]` where `expr` ends in an identifier, `)` or `]`).
fn panic_site_at(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.kind == TokKind::Ident && toks[i - 1].is_punct('.') {
        if t.is_ident("unwrap") && toks.get(i + 1).map(|x| x.is_punct('(')) == Some(true) {
            return Some("`.unwrap()`");
        }
        if t.is_ident("expect") && toks.get(i + 1).map(|x| x.is_punct('(')) == Some(true) {
            return Some("`.expect(…)`");
        }
    }
    if t.is_ident("panic") && toks.get(i + 1).map(|x| x.is_punct('!')) == Some(true) {
        return Some("`panic!`");
    }
    if t.is_punct('[') {
        let p = &toks[i - 1];
        let ident_recv = p.kind == TokKind::Ident
            && ![
                "mut", "ref", "dyn", "as", "in", "let", "return", "where", "else",
            ]
            .iter()
            .any(|k| p.is_ident(k));
        // `v[0]` — a lone numeric-literal index into a fixed receiver is
        // input-independent (any test run exercises it); the release
        // panic risk this lint targets is *computed* indices.
        let const_index = toks.get(i + 1).map(|x| x.kind == TokKind::Num) == Some(true)
            && toks.get(i + 2).map(|x| x.is_punct(']')) == Some(true);
        if (ident_recv || p.is_punct(')') || p.is_punct(']')) && !const_index {
            return Some("slice indexing");
        }
    }
    None
}

/// A comment mentioning SAFETY or bounds within the 3 lines above.
fn has_bounds_comment(lines: &[String], line: usize) -> bool {
    let lo = line.saturating_sub(4); // 3 lines above, 0-based
    (lo..line.saturating_sub(1)).any(|ix| {
        lines.get(ix).is_some_and(|l| {
            let t = l.trim();
            let lower = t.to_ascii_lowercase();
            t.contains("//") && (lower.contains("safety") || lower.contains("bound"))
        })
    })
}

// ---------------------------------------------------------------------------
// Lint family 4: config staleness
// ---------------------------------------------------------------------------

/// The synthetic "file" staleness diagnostics anchor to: the config is
/// compiled into the auditor, so that is where the fix goes.
pub const CONFIG_FILE: &str = "crates/audit/src/lib.rs";

pub(crate) fn lint_config_staleness(
    ix: &WorkspaceIndex,
    cfg: &AuditConfig,
    out: &mut Vec<Diagnostic>,
) {
    let stale = |message: String| Diagnostic {
        file: CONFIG_FILE.to_string(),
        line: 1,
        lint: Lint::ConfigStaleness,
        message,
    };
    for hp in &cfg.hot_paths {
        let file_ids: Vec<usize> = ix
            .files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.rel.ends_with(&hp.file_suffix))
            .map(|(i, _)| i)
            .collect();
        if file_ids.is_empty() {
            out.push(stale(format!(
                "hot-path file suffix `{}` matches no workspace file; \
                 remove or update the AuditConfig entry",
                hp.file_suffix
            )));
            continue;
        }
        for name in &hp.functions {
            let (owner, bare) = match name.split_once("::") {
                Some((o, b)) => (Some(o), b),
                None => (None, name.as_str()),
            };
            let found = ix.fns.iter().any(|f| {
                f.name == bare
                    && file_ids.contains(&f.file)
                    && owner.is_none_or(|o| f.owner.as_deref() == Some(o))
            });
            if !found {
                out.push(stale(format!(
                    "hot-path root `{name}` does not resolve to any `fn` in `{}`; \
                     the function was renamed or removed — update the AuditConfig \
                     roots to match",
                    hp.file_suffix
                )));
            }
        }
    }
    for name in cfg.lock_order.iter().chain(cfg.condvars.iter()) {
        if !ix.lock_names_seen.contains(name) {
            out.push(stale(format!(
                "configured lock/condvar `{name}` is never used as a lock receiver \
                 or declared as a Mutex/RwLock/Condvar field anywhere in the \
                 workspace; update the AuditConfig lock tables",
            )));
        }
    }
    for name in &cfg.trace_fns {
        if !ix.fns.iter().any(|f| &f.name == name) {
            out.push(stale(format!(
                "configured trace fn `{name}` is not defined anywhere in the \
                 workspace; update AuditConfig::trace_fns to the real gcnn-trace API",
            )));
        }
    }
}

/// Run all graph lints. Returns the diagnostics plus index statistics
/// for the report.
pub fn analyze_sources(
    sources: &[SourceFile],
    cfg: &AuditConfig,
) -> (Vec<Diagnostic>, usize, usize) {
    let ix = WorkspaceIndex::build(sources);
    let mut out = Vec::new();
    let roots = resolve_roots(&ix, cfg);
    lint_transitive_arena(&ix, &roots, &mut out);
    lint_lock_discipline(&ix, cfg, &mut out);
    lint_panic_freedom(&ix, cfg, &mut out);
    lint_config_staleness(&ix, cfg, &mut out);
    crate::reach::lint_reachability(&ix, cfg, &mut out);
    (out, ix.fns.len(), ix.call_edge_count)
}
