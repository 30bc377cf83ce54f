//! Pass 1 of the two-pass analyzer: a lightweight per-file item table.
//!
//! [`parse_fns`] walks one file's token stream and records every `fn`
//! item — name, enclosing `impl` owner, declaring line, body token
//! span, and the `unsafe` / `#[target_feature]` flags the kernel lints
//! key on. [`call_sites`] then extracts the call-shaped token patterns
//! (`name(…)`, `Type::name(…)`, `.name(…)`, turbofish) from a body
//! span; the workspace index resolves them against the item table to
//! build the intra-workspace call graph.
//!
//! [`item_spans`] finds the tokens outside any `fn` (`const`/`static`
//! initializers, macros, type definitions) and [`ref_sites`] every
//! identifier of a span, call or not; the reachability lint
//! ([`crate::reach`]) walks those.
//!
//! This is deliberately *not* name resolution — no imports, no types.
//! Each consumer picks its candidates by name and states what it
//! resolves: the call graph keeps the narrowest non-empty scope tier
//! (see [`crate::analysis`]), which drops wider candidates, so it is not
//! an over-approximation; the reachability graph widens instead.

use std::ops::Range;

use crate::lexer::{Tok, TokKind};

/// One `fn` item from pass 1.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the owning file in the analysis file list.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type (last path segment), when inside one.
    pub owner: Option<String>,
    /// Trait of the enclosing `impl Trait for Type` (with an `owner`) or
    /// `trait Trait` declaration (without one), when inside one.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword in the file's stream.
    pub fn_tok: usize,
    /// Token span of the body braces (`{` index, `}` index), when the
    /// item has a body (trait-method declarations do not).
    pub body: Option<(usize, usize)>,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Carries a `#[target_feature(…)]` attribute.
    pub target_feature: bool,
    /// Inside a `#[test]` / `#[cfg(test)]` region, or in a file that is
    /// test/bench/example code wholesale.
    pub in_test: bool,
}

impl FnItem {
    /// Display name: `Owner::name` inside an impl, `Trait::name` inside
    /// a trait declaration, bare name otherwise.
    pub fn qname(&self) -> String {
        match self.owner.as_ref().or(self.trait_name.as_ref()) {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call-shaped site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name.
    pub tok: usize,
    /// Callee name (last path segment).
    pub name: String,
    /// `Type` in a `Type::name(…)` path call.
    pub qualifier: Option<String>,
    /// `.name(…)` method-call syntax.
    pub is_method: bool,
}

/// Identifiers that look like calls but are control flow or bindings.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "as", "in", "else", "move", "unsafe",
    "let", "mut", "ref", "break", "continue", "where", "impl", "dyn", "use", "pub", "mod",
    "struct", "enum", "trait", "type", "const", "static", "await", "yield",
];

/// Keywords whose next identifier is the name of the item they define.
const DEFINING: &[&str] = &["fn", "mod", "struct", "enum", "union", "trait", "type"];

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx <= e)
}

/// Find the `{…}` body span starting the scan just after the fn name:
/// the first `{` outside parameter/return brackets opens the body, a
/// top-level `;` means a bodiless declaration.
pub fn find_body(toks: &[Tok], start: usize) -> Option<(usize, usize)> {
    let mut k = start;
    let mut pdepth = 0i32;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            pdepth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            pdepth -= 1;
        } else if t.is_punct('{') && pdepth == 0 {
            break;
        } else if t.is_punct(';') && pdepth == 0 {
            return None;
        }
        k += 1;
    }
    if k >= toks.len() || !toks[k].is_punct('{') {
        return None;
    }
    let mut bd = 0i32;
    let mut e = k;
    while e < toks.len() {
        if toks[e].is_punct('{') {
            bd += 1;
        } else if toks[e].is_punct('}') {
            bd -= 1;
            if bd == 0 {
                return Some((k, e));
            }
        }
        e += 1;
    }
    Some((k, toks.len().saturating_sub(1)))
}

/// Skip an attribute starting at `#` (outer) or `#!` (inner); returns
/// (tokens inside the brackets, index just past the closing `]`).
fn scan_attr(toks: &[Tok], i: usize) -> (Vec<Tok>, usize) {
    let mut j = i + 1;
    if j < toks.len() && toks[j].is_punct('!') {
        j += 1;
    }
    if j >= toks.len() || !toks[j].is_punct('[') {
        return (Vec::new(), i + 1);
    }
    let start = j + 1;
    let mut depth = 1i32;
    j += 1;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
        }
        j += 1;
    }
    (toks[start..j.saturating_sub(1)].to_vec(), j)
}

/// True when the tokens immediately before the `fn` keyword include
/// `unsafe` (scanning back through `pub`, `const`, visibility parens,
/// and the `extern "C"` string).
fn modifiers_include_unsafe(toks: &[Tok], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while j > 0 {
        let p = &toks[j - 1];
        let modifier = matches!(p.kind, TokKind::Str)
            || p.is_punct('(')
            || p.is_punct(')')
            || [
                "pub", "const", "async", "unsafe", "extern", "crate", "super", "self", "in",
            ]
            .iter()
            .any(|m| p.is_ident(m));
        if !modifier {
            return false;
        }
        if p.is_ident("unsafe") {
            return true;
        }
        j -= 1;
    }
    false
}

/// `(trait, owner type)` of an `impl` header starting just past the
/// `impl` keyword. The owner is the last angle-depth-0 path segment
/// before the body brace — of the `for` part when present (`impl Trait
/// for Foo`), of the whole header otherwise (`impl Foo<T>`), never of
/// the `where` clause; the trait is the header's before `for`.
fn parse_impl_header(toks: &[Tok], start: usize) -> (Option<String>, Option<String>) {
    let mut angle = 0i32;
    let mut j = start;
    let mut after_for = false;
    let mut head_last: Option<String> = None;
    let mut for_last: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if !(j > 0 && toks[j - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if angle == 0 {
            if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                after_for = true;
            } else if t.kind == TokKind::Ident && !t.is_ident("dyn") {
                if after_for {
                    for_last = Some(t.text.clone());
                } else {
                    head_last = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    match for_last {
        Some(owner) => (head_last, Some(owner)),
        None => (None, head_last),
    }
}

/// Parse every `fn` item in one file. `force_test` marks the whole file
/// as test code (integration tests, benches, examples): its items join
/// the table for staleness resolution but are excluded from call-graph
/// traversal and the kernel lints.
pub fn parse_fns(
    file: usize,
    toks: &[Tok],
    regions: &[(usize, usize)],
    force_test: bool,
) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    // (trait, owner) of each open `impl` block, (trait, None) of each
    // open `trait` block, with the brace depth it opened at.
    type Header = (Option<String>, Option<String>);
    let mut impl_stack: Vec<(Header, i32)> = Vec::new();
    let mut pending_impl: Option<Header> = None;
    let mut pending_tf = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#')
            && (toks.get(i + 1).map(|x| x.is_punct('[')) == Some(true)
                || (toks.get(i + 1).map(|x| x.is_punct('!')) == Some(true)
                    && toks.get(i + 2).map(|x| x.is_punct('[')) == Some(true)))
        {
            let (attr, end) = scan_attr(toks, i);
            if attr.iter().any(|a| a.is_ident("target_feature")) {
                pending_tf = true;
            }
            i = end;
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            if let Some(header) = pending_impl.take() {
                impl_stack.push((header, depth));
            }
            pending_tf = false;
        } else if t.is_punct('}') {
            if impl_stack.last().map(|&(_, d)| d) == Some(depth) {
                impl_stack.pop();
            }
            depth -= 1;
            pending_tf = false;
        } else if t.is_punct(';') {
            pending_tf = false;
        } else if t.is_ident("impl") {
            pending_impl = Some(parse_impl_header(toks, i + 1));
        } else if t.is_ident("trait") && toks.get(i + 1).map(|x| x.kind) == Some(TokKind::Ident) {
            pending_impl = Some((Some(toks[i + 1].text.clone()), None));
        } else if t.is_ident("fn") && toks.get(i + 1).map(|x| x.kind) == Some(TokKind::Ident) {
            let (trait_name, owner) = impl_stack.last().map_or((None, None), |(h, _)| h.clone());
            out.push(FnItem {
                file,
                name: toks[i + 1].text.clone(),
                owner,
                trait_name,
                line: toks[i].line,
                fn_tok: i,
                body: find_body(toks, i + 2),
                is_unsafe: modifiers_include_unsafe(toks, i),
                target_feature: pending_tf,
                in_test: force_test || in_regions(regions, i),
            });
            pending_tf = false;
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// The token ranges of one file outside every `fn` (signature and body)
/// and every `use` item: `const`/`static` initializers, `macro_rules!`
/// bodies, macro invocations at item level, type definitions.
pub fn item_spans(toks: &[Tok]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < toks.len() {
        let skip_to = if toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            Some(find_body(toks, i + 2).map_or(i + 2, |(_, e)| e + 1))
        } else if toks[i].is_ident("use") {
            Some(
                toks[i..]
                    .iter()
                    .position(|t| t.is_punct(';'))
                    .map_or(toks.len(), |p| i + p + 1),
            )
        } else {
            None
        };
        match skip_to {
            Some(next) => {
                if i > start {
                    out.push(start..i);
                }
                start = next;
                i = next;
            }
            None => i += 1,
        }
    }
    if toks.len() > start {
        out.push(start..toks.len());
    }
    out
}

/// Extract call-shaped sites from a body token span.
pub fn call_sites(toks: &[Tok], body: (usize, usize)) -> Vec<CallSite> {
    sites(toks, body.0 + 1..body.1, false)
}

/// Every identifier in a token span that could name a function: the
/// call sites, plus a name without call syntax (a fn pointer, a table
/// entry, a macro argument). Field accesses (`.name` without a call),
/// macro names (`name!`) and `std::`/`core::`/`alloc::` paths are left
/// out.
pub fn ref_sites(toks: &[Tok], span: Range<usize>) -> Vec<CallSite> {
    sites(toks, span, true)
}

/// The path ending at `i` starts at `std`, `core` or `alloc`, so it
/// names nothing in the workspace.
fn std_path(toks: &[Tok], mut i: usize) -> bool {
    while i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        i -= 3;
    }
    i < toks.len()
        && toks[i].kind == TokKind::Ident
        && ["std", "core", "alloc"].contains(&toks[i].text.as_str())
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

fn sites(toks: &[Tok], span: Range<usize>, refs: bool) -> Vec<CallSite> {
    let be = span.end;
    let mut out = Vec::new();
    let mut i = span.start;
    while i < be {
        let t = &toks[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.iter().any(|k| t.is_ident(k)) {
            i += 1;
            continue;
        }
        // Skip the name an item defines (`fn`, `mod`, `struct`, …): a
        // definition site is not a use (a nested fn is parsed separately
        // by `parse_fns`).
        if i > 0 && DEFINING.iter().any(|k| toks[i - 1].is_ident(k)) {
            i += 1;
            continue;
        }
        // `name(`, or `name::<T>(` through a turbofish.
        let mut j = i + 1;
        if j + 2 < be
            && toks[j].is_punct(':')
            && toks[j + 1].is_punct(':')
            && toks[j + 2].is_punct('<')
        {
            let mut angle = 1i32;
            j += 3;
            while j < be && angle > 0 {
                if toks[j].is_punct('<') {
                    angle += 1;
                } else if toks[j].is_punct('>') && !toks[j - 1].is_punct('-') {
                    angle -= 1;
                }
                j += 1;
            }
        }
        let is_call = toks.get(j).map(|x| x.is_punct('(')) == Some(true);
        // `name!(…)` is a macro, not a resolvable call.
        let is_macro = toks.get(i + 1).map(|x| x.is_punct('!')) == Some(true);
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        // `name: …` declares a field or a binding's type; it names no fn.
        let declared = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
        let keep = if refs {
            (is_call || !is_method) && !is_macro && !declared && !std_path(toks, i)
        } else {
            is_call && !is_macro
        };
        if keep {
            let qualifier = if i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].kind == TokKind::Ident
            {
                Some(toks[i - 3].text.clone())
            } else {
                None
            };
            out.push(CallSite {
                tok: i,
                name: t.text.clone(),
                qualifier,
                is_method,
            });
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::test_regions;

    fn items(src: &str) -> Vec<FnItem> {
        let toks = lex(src);
        let regions = test_regions(&toks);
        parse_fns(0, &toks, &regions, false)
    }

    #[test]
    fn finds_free_and_impl_fns_with_owners() {
        let src = "fn free() {}\nstruct S;\nimpl S {\n    pub fn method(&self) {}\n}\nimpl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n";
        let f = items(src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert_eq!(f[0].qname(), "free");
        assert_eq!(f[1].qname(), "S::method");
        assert_eq!(f[2].qname(), "S::fmt");
    }

    #[test]
    fn generic_impl_owner_is_the_type_not_the_param() {
        let src = "impl<T: Clone> Pool<T> {\n    fn take(&mut self) {}\n}\n";
        let f = items(src);
        assert_eq!(f[0].qname(), "Pool::take");
    }

    #[test]
    fn unsafe_and_target_feature_flags() {
        let src = "#[target_feature(enable = \"avx2\")]\npub unsafe fn kern() {}\n#[inline]\nfn plain() {}\n";
        let f = items(src);
        assert!(f[0].is_unsafe && f[0].target_feature, "{f:?}");
        assert!(!f[1].is_unsafe && !f[1].target_feature, "{f:?}");
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let f = items(src);
        assert!(!f[0].in_test);
        assert!(f[1].in_test);
    }

    #[test]
    fn bodiless_trait_methods_have_no_span() {
        let src = "trait T {\n    fn sig(&self);\n    fn with_default(&self) {}\n}\n";
        let f = items(src);
        assert!(f[0].body.is_none());
        assert!(f[1].body.is_some());
    }

    #[test]
    fn call_sites_capture_path_method_and_turbofish() {
        let src = "fn f() {\n    helper();\n    Tensor::zeros(4);\n    x.method(1);\n    take::<f32>(8);\n    vec![1];\n    if cond() {}\n}\n";
        let toks = lex(src);
        let body = find_body(&toks, 2).unwrap();
        let calls = call_sites(&toks, body);
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["helper", "zeros", "method", "take", "cond"]);
        assert_eq!(calls[1].qualifier.as_deref(), Some("Tensor"));
        assert!(calls[2].is_method);
        assert!(!calls[0].is_method && calls[0].qualifier.is_none());
    }

    #[test]
    fn nested_fn_definition_is_an_item_not_a_call() {
        let src = "fn outer() {\n    fn inner() {}\n    inner();\n}\n";
        let f = items(src);
        assert_eq!(f.len(), 2);
        let toks = lex(src);
        let body = find_body(&toks, 2).unwrap();
        let calls = call_sites(&toks, body);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "inner");
    }
}
