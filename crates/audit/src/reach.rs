//! Lint family 5: reachability — which library functions what ships
//! needs.
//!
//! Every `fn` of library code (`crates/*/src` outside test regions and
//! outside root files) gets one of three verdicts: reached from a
//! **live root**, **`test-only`** (reached from test roots alone) or
//! **`unreachable`**. The last two are diagnostics unless the fn is on
//! [`AuditConfig::keep`], whose entries config-staleness checks.
//!
//! * Live roots: every fn in a file matched by
//!   [`AuditConfig::live_roots`] (the bins, the auditor's `main`,
//!   `examples/`, the benchmark harness under `benchmark/src/`), every
//!   name outside a fn in library code (see below), and every method of
//!   an `impl` of a trait the workspace does not define (`fmt`, `drop`,
//!   `next`, `default`, …: std calls them).
//! * Test roots: `#[test]`/`#[cfg(test)]` code, `crates/*/tests`,
//!   `crates/*/benches`, the workspace `tests/`, and the files matched by
//!   [`AuditConfig::test_roots`] (the measuring bins), which win over a
//!   live match.
//!
//! The graph is built by name, without types, and leans towards
//! reaching too much:
//!
//! * every identifier counts, not only calls: a fn named as a pointer,
//!   a table entry or a macro argument is referenced; a name outside any
//!   fn (a `const`/`static` initializer, a macro's rules or item-level
//!   invocation) is referenced by the file, as a root;
//! * `.name(…)`, and `T::name` where no `impl` is for a type `T` (a
//!   generic, a trait, a module, `Self`), reach every fn of that name;
//! * a bare `name` reaches the free fns of that name in the narrowest
//!   scope that has one (same file → same crate → workspace), and all of
//!   them when the file imports the name with `use`; `Type::name` reaches
//!   `Type`'s methods of that name, else resolves as a bare name;
//!   `std::`/`core::`/`alloc::` paths reach nothing;
//! * an impl's method reaches its trait's declaration of that method.
//!
//! What it cannot see: a call through a re-export under another name
//! and a fn only a doc test uses (both read as dead: a false diagnostic),
//! and a bare name shadowed by a nearer fn of that name (which can hide a
//! dead one).

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::analysis::{narrowest, WorkspaceIndex, CONFIG_FILE};
use crate::items::{item_spans, ref_sites, CallSite};
use crate::lexer::{Tok, TokKind};
use crate::{AuditConfig, Diagnostic, Lint};

/// Where the default allow-list lives, and where its staleness points.
pub const KEEP_FILE: &str = "crates/audit/keep.txt";

/// How far a fn is reached. A live root outranks a test one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    None,
    Test,
    Live,
}

/// `pattern` against a workspace-relative path, segment by segment:
/// `*` matches any one segment, and a trailing `/` matches the rest
/// (`crates/*/src/bin/` matches every bin of every crate).
pub fn path_matches(pattern: &str, rel: &str) -> bool {
    let (mut p, mut r) = (pattern.split('/'), rel.split('/'));
    loop {
        match (p.next(), r.next()) {
            (Some(""), Some(_)) | (None, None) => return true,
            (Some(a), Some(b)) if a == "*" || a == b => {}
            _ => return false,
        }
    }
}

/// Identifiers a file imports with `use`.
fn imported(toks: &[Tok]) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    let mut in_use = false;
    for t in toks {
        if t.is_ident("use") {
            in_use = true;
        } else if t.is_punct(';') {
            in_use = false;
        } else if in_use && t.kind == TokKind::Ident {
            out.insert(t.text.as_str());
        }
    }
    out
}

/// Name → fn candidates, with what resolving a site needs.
struct Resolver<'a> {
    ix: &'a WorkspaceIndex,
    by_name: HashMap<&'a str, Vec<usize>>,
    /// Types some `impl` block is for.
    impl_owners: BTreeSet<&'a str>,
    uses: Vec<BTreeSet<&'a str>>,
}

impl Resolver<'_> {
    /// The fns a site in `file` may name. Library code reaches library
    /// code only; test and consumer code (`in_test`) also the test
    /// helpers of its own crate.
    fn resolve(&self, c: &CallSite, file: usize, in_test: bool) -> Vec<usize> {
        let ix = self.ix;
        let krate = &ix.files[file].crate_name;
        let fns = &ix.fns;
        let cands: Vec<usize> = self.by_name.get(c.name.as_str()).map_or(Vec::new(), |v| {
            v.iter()
                .copied()
                .filter(|&t| {
                    !fns[t].in_test || (in_test && &ix.files[fns[t].file].crate_name == krate)
                })
                .collect()
        });
        if c.is_method {
            return cands;
        }
        if let Some(q) = c.qualifier.as_deref() {
            if !self.impl_owners.contains(q) {
                return cands;
            }
            let owned: Vec<usize> = (cands.iter().copied())
                .filter(|&t| fns[t].owner.as_deref() == Some(q))
                .collect();
            if !owned.is_empty() {
                return owned;
            }
        }
        let free: Vec<usize> = (cands.into_iter())
            .filter(|&t| fns[t].owner.is_none() && fns[t].trait_name.is_none())
            .collect();
        if self.uses[file].contains(c.name.as_str()) {
            return free;
        }
        narrowest(free, &ix.fns, &ix.files, file)
    }
}

/// Each fn's verdict and, once reached, the root it was first reached
/// from (a fn index, or `None` for a name outside any fn).
fn verdicts(ix: &WorkspaceIndex, cfg: &AuditConfig) -> (Vec<Reach>, Vec<Option<usize>>) {
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in ix.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let r = Resolver {
        ix,
        by_name,
        impl_owners: ix.fns.iter().filter_map(|f| f.owner.as_deref()).collect(),
        uses: ix.files.iter().map(|f| imported(&f.toks)).collect(),
    };
    // Traits the workspace declares; an impl of any other is std's.
    let traits: BTreeSet<&str> = (ix.fns.iter())
        .filter(|f| f.owner.is_none())
        .filter_map(|f| f.trait_name.as_deref())
        .collect();
    let in_region = |file: usize, tok: usize| {
        (ix.files[file].regions.iter()).any(|&(s, e)| tok >= s && tok <= e)
    };
    let file_root: Vec<Reach> = (ix.files.iter())
        .map(|f| {
            if cfg.test_roots.iter().any(|p| path_matches(p, &f.rel)) {
                Reach::Test
            } else if cfg.live_roots.iter().any(|p| path_matches(p, &f.rel)) {
                Reach::Live
            } else if f.test_file {
                Reach::Test
            } else {
                Reach::None
            }
        })
        .collect();

    // Edges out of every fn, test code included; an impl's method also
    // reaches its trait's declaration.
    let edges: Vec<Vec<usize>> = (ix.fns.iter())
        .map(|f| {
            let mut out: Vec<usize> = f.body.map_or(Vec::new(), |(s, e)| {
                (ref_sites(&ix.files[f.file].toks, s + 1..e).iter())
                    .flat_map(|c| r.resolve(c, f.file, f.in_test))
                    .collect()
            });
            if f.owner.is_some() && f.trait_name.is_some() {
                out.extend(
                    (ix.fns.iter().enumerate())
                        .filter(|(_, d)| {
                            d.owner.is_none() && d.trait_name == f.trait_name && d.name == f.name
                        })
                        .map(|(d, _)| d),
                );
            }
            out
        })
        .collect();

    // Roots: (fn, level, origin).
    let mut roots: Vec<(usize, Reach, Option<usize>)> = Vec::new();
    for (i, f) in ix.fns.iter().enumerate() {
        let std_impl =
            f.owner.is_some() && (f.trait_name.as_deref()).is_some_and(|t| !traits.contains(t));
        let level = match file_root[f.file] {
            _ if in_region(f.file, f.fn_tok) => Reach::Test,
            Reach::None if std_impl => Reach::Live,
            level => level,
        };
        roots.push((i, level, Some(i)));
    }
    for (file, fd) in ix.files.iter().enumerate() {
        for span in item_spans(&fd.toks) {
            for c in ref_sites(&fd.toks, span) {
                let level = match file_root[file] {
                    _ if in_region(file, c.tok) => Reach::Test,
                    Reach::None => Reach::Live,
                    level => level,
                };
                let in_test = level == Reach::Test || fd.test_file;
                roots.extend(
                    r.resolve(&c, file, in_test)
                        .into_iter()
                        .map(|t| (t, level, None)),
                );
            }
        }
    }

    let mut reach = vec![Reach::None; ix.fns.len()];
    let mut origin = vec![None; ix.fns.len()];
    for level in [Reach::Live, Reach::Test] {
        let mut queue = VecDeque::new();
        for &(i, l, o) in &roots {
            if l == level && reach[i] == Reach::None {
                (reach[i], origin[i]) = (level, o);
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &t in &edges[i] {
                if reach[t] == Reach::None {
                    (reach[t], origin[t]) = (level, origin[i]);
                    queue.push_back(t);
                }
            }
        }
    }
    (reach, origin)
}

/// `(file suffix, qualified fn name)` of a keep entry; an empty name
/// keeps every fn of the file.
fn split_keep(item: &str) -> (&str, &str) {
    match item.find(".rs") {
        Some(end) => (&item[..end + 3], item[end + 3..].trim_start_matches("::")),
        None => (item, ""),
    }
}

pub(crate) fn lint_reachability(ix: &WorkspaceIndex, cfg: &AuditConfig, out: &mut Vec<Diagnostic>) {
    if cfg.live_roots.is_empty() {
        return;
    }
    let (reach, origin) = verdicts(ix, cfg);
    // The library fns judged: not test code, not in a root file.
    let subjects: Vec<usize> = (0..ix.fns.len())
        .filter(|&i| {
            let rel = &ix.files[ix.fns[i].file].rel;
            !ix.fns[i].in_test
                && !(cfg.live_roots.iter().chain(&cfg.test_roots)).any(|p| path_matches(p, rel))
        })
        .collect();
    let kept_by = |i: usize, item: &str| {
        let (file, name) = split_keep(item);
        ix.files[ix.fns[i].file].rel.ends_with(file)
            && (name.is_empty() || ix.fns[i].qname() == name)
    };
    for &i in &subjects {
        let f = &ix.fns[i];
        if reach[i] == Reach::Live || cfg.keep.iter().any(|k| kept_by(i, &k.item)) {
            continue;
        }
        let (lint, why) = match (reach[i], origin[i]) {
            (Reach::Test, Some(o)) => (
                Lint::TestOnly,
                format!(
                    "is reached only from test code (first from `{}` in {})",
                    ix.qname(o),
                    ix.files[ix.fns[o].file].rel
                ),
            ),
            (Reach::Test, None) => (Lint::TestOnly, "is reached only from test code".into()),
            _ => (
                Lint::Unreachable,
                "is reached from no root, test code included".into(),
            ),
        };
        out.push(Diagnostic {
            file: ix.files[f.file].rel.clone(),
            line: f.line,
            lint,
            message: format!(
                "`fn {}` {why}; no bin, example or benchmark workload needs it — delete it, \
                 or add it to {KEEP_FILE} with a reason",
                f.qname()
            ),
        });
    }

    // The allow-list and the root patterns must still mean something.
    let stale_in = |file: &str, message: String| Diagnostic {
        file: file.to_string(),
        line: 1,
        lint: Lint::ConfigStaleness,
        message,
    };
    let stale = |message| stale_in(KEEP_FILE, message);
    for k in &cfg.keep {
        let hits: Vec<usize> = (subjects.iter().copied())
            .filter(|&i| kept_by(i, &k.item))
            .collect();
        if k.why.trim().is_empty() {
            out.push(stale(format!("keep entry `{}` gives no reason", k.item)));
        }
        if hits.is_empty() {
            out.push(stale(format!(
                "keep entry `{}` resolves to no library fn; it was renamed or deleted — \
                 update the keep list",
                k.item
            )));
        } else if hits.iter().all(|&i| reach[i] == Reach::Live) {
            out.push(stale(format!(
                "keep entry `{}` is reached from a live root now; remove it from the \
                 keep list",
                k.item
            )));
        }
    }
    for p in cfg.live_roots.iter().chain(&cfg.test_roots) {
        if !ix.files.iter().any(|f| path_matches(p, &f.rel)) {
            out.push(stale_in(
                CONFIG_FILE,
                format!(
                    "reachability root pattern `{p}` matches no workspace file; update \
                     AuditConfig::live_roots / test_roots"
                ),
            ));
        }
    }
}
