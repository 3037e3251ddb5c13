//! Per-file item index: functions, impl/mod context, and test regions.
//!
//! This is a *scanner-grade* item model, not an AST: it walks the code
//! token stream (comments filtered out) with a brace-matching stack and
//! records, for every `fn`, its name, the impl type it belongs to, its
//! body's token range, the names it calls, and whether it is test code.
//! Test code — `#[test]` functions and everything inside a `#[cfg(test)]`
//! module — is indexed but flagged, so rules aimed at production paths
//! (QA101/QA102) can skip it while whole-file rules (QA103) can still
//! exclude the region precisely.
//!
//! The model is deliberately heuristic in the same way the call graph is:
//! an over-approximation that errs toward *indexing* things. Constructs it
//! cannot attribute to a function (consts, statics, struct fields) remain
//! visible to file-scope rules through the raw token stream.

use crate::lexer::{TokKind, Token};
use quarry_exec::diag::Span;

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`handle`).
    pub name: String,
    /// Qualified display name (`Server::handle` inside an impl).
    pub qual: String,
    /// Span of the name token (diagnostics anchor here for fn-level findings).
    pub name_span: Span,
    /// `[start, end)` range in the file's *code token* array covering the
    /// body including both braces. Empty (`start == end`) for bodyless
    /// declarations (trait methods, extern).
    pub body: (usize, usize),
    /// True for `#[test]` fns and anything inside a `#[cfg(test)]` mod.
    pub is_test: bool,
    /// Callees named in the body, with the code-token index of each call
    /// site, in source order: `Type::f` for a call through a type path
    /// (`Self` read as the impl type), else the bare name `f`.
    pub calls: Vec<(String, usize)>,
}

/// A lexed, indexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (`crates/serve/src/server.rs`).
    pub path: String,
    /// Crate name derived from the path (`serve`, or `quarry` for the root `src/`).
    pub crate_name: String,
    /// Full source text.
    pub src: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Function items in file order.
    pub fns: Vec<FnItem>,
    /// `[start, end)` code-token ranges lying inside `#[cfg(test)]` mods.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex and index one source file. `path` uses forward slashes.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let tokens = crate::lexer::tokenize(src);
        let code: Vec<usize> =
            tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).map(|(i, _)| i).collect();
        let mut file = SourceFile {
            path: path.to_string(),
            crate_name: crate_of(path),
            src: src.to_string(),
            tokens,
            code,
            fns: Vec::new(),
            test_regions: Vec::new(),
        };
        Indexer::new(&file).run(&mut file);
        file
    }

    /// The code token at code-index `i`, if in range.
    pub fn ct(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&ti| &self.tokens[ti])
    }

    /// True when code-token index `i` lies inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// 1-based line number of a byte offset (for allow-comment matching).
    pub fn line_of(&self, offset: usize) -> usize {
        quarry_exec::diag::line_col_of(&self.src, offset).0
    }
}

/// `crates/serve/src/server.rs` → `serve`; `src/lib.rs` → `quarry`.
fn crate_of(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        _ => "quarry".to_string(),
    }
}

/// Names that look like calls but are control flow or bindings.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "where", "impl", "dyn", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "unsafe", "async", "await", "crate", "super",
    "self", "Self", "true", "false",
];

struct Indexer {
    /// (mod-name, is_cfg_test) stack of named modules entered.
    test_depth: usize,
    /// Impl type stack (`Server`), innermost last.
    impl_types: Vec<String>,
}

impl Indexer {
    fn new(_file: &SourceFile) -> Indexer {
        Indexer { test_depth: 0, impl_types: Vec::new() }
    }

    fn run(mut self, file: &mut SourceFile) {
        let mut fns = Vec::new();
        let mut test_regions = Vec::new();
        self.scan(file, 0, file.code.len(), &mut fns, &mut test_regions);
        file.fns = fns;
        file.test_regions = test_regions;
    }

    /// Walk code tokens `[from, to)` at one nesting level, recursing into
    /// mod/impl/fn bodies.
    fn scan(
        &mut self,
        file: &SourceFile,
        from: usize,
        to: usize,
        fns: &mut Vec<FnItem>,
        test_regions: &mut Vec<(usize, usize)>,
    ) {
        let mut i = from;
        while i < to {
            let tok = match file.ct(i) {
                Some(t) => t,
                None => break,
            };
            if tok.is_ident("fn") {
                i = self.index_fn(file, i, to, fns, test_regions);
            } else if tok.is_ident("mod") {
                i = self.index_mod(file, i, to, fns, test_regions);
            } else if tok.is_ident("impl") {
                i = self.index_impl(file, i, to, fns, test_regions);
            } else if tok.is_punct('{') {
                // Unattributed block (match arm, const init, ...): recurse
                // so nested items keep mod/impl context.
                let end = match_brace(file, i, to);
                self.scan(file, i + 1, end, fns, test_regions);
                i = end + 1;
            } else {
                i += 1;
            }
        }
    }

    /// Index `fn name ... { body }` starting at the `fn` token; returns the
    /// code index just past the body.
    fn index_fn(
        &mut self,
        file: &SourceFile,
        at: usize,
        to: usize,
        fns: &mut Vec<FnItem>,
        test_regions: &mut Vec<(usize, usize)>,
    ) -> usize {
        let Some(name_tok) = file.ct(at + 1).filter(|t| t.kind == TokKind::Ident) else {
            return at + 1;
        };
        let name = name_tok.text.clone();
        let name_span = name_tok.span;
        let attrs = attrs_before(file, at);
        let is_test =
            self.test_depth > 0 || attrs.iter().any(|a| a == "test" || a.starts_with("cfg(test"));

        // The body is the first `{` before a `;` at this level.
        let mut j = at + 2;
        let mut body = (j, j);
        while j < to {
            let t = match file.ct(j) {
                Some(t) => t,
                None => break,
            };
            if t.is_punct(';') {
                body = (j, j); // bodyless declaration
                break;
            }
            if t.is_punct('{') {
                let end = match_brace(file, j, to);
                body = (j, (end + 1).min(to));
                break;
            }
            // Skip over parenthesized args and bracketed generics wholesale
            // so a `;` inside them can't end the signature early.
            if t.is_punct('(') {
                j = match_delim(file, j, to, '(', ')') + 1;
                continue;
            }
            if t.is_punct('[') {
                j = match_delim(file, j, to, '[', ']') + 1;
                continue;
            }
            j += 1;
        }

        let self_ty = self.impl_types.last().map(String::as_str);
        let qual = match self_ty {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        let calls = collect_calls(file, body.0, body.1, self_ty);
        fns.push(FnItem { name, qual, name_span, body, is_test, calls });

        // Recurse into the body for nested fns / test mods.
        if body.1 > body.0 {
            self.scan(file, body.0 + 1, body.1.saturating_sub(1), fns, test_regions);
        }
        body.1.max(at + 2)
    }

    fn index_mod(
        &mut self,
        file: &SourceFile,
        at: usize,
        to: usize,
        fns: &mut Vec<FnItem>,
        test_regions: &mut Vec<(usize, usize)>,
    ) -> usize {
        // `mod name;` or `mod name { ... }`
        let attrs = attrs_before(file, at);
        let cfg_test = attrs.iter().any(|a| a.starts_with("cfg(test"));
        let mut j = at + 2;
        loop {
            match file.ct(j) {
                Some(t) if t.is_punct(';') => return j + 1,
                Some(t) if t.is_punct('{') => break,
                Some(_) if j < to => j += 1,
                _ => return j,
            }
        }
        let end = match_brace(file, j, to);
        if cfg_test {
            test_regions.push((j, (end + 1).min(to)));
            self.test_depth += 1;
        }
        self.scan(file, j + 1, end, fns, test_regions);
        if cfg_test {
            self.test_depth -= 1;
        }
        end + 1
    }

    fn index_impl(
        &mut self,
        file: &SourceFile,
        at: usize,
        to: usize,
        fns: &mut Vec<FnItem>,
        test_regions: &mut Vec<(usize, usize)>,
    ) -> usize {
        // Find the `{`; the impl type is the first ident after `for`, or
        // else the first ident after `impl` that is not a generic param.
        let mut j = at + 1;
        let mut after_for = false;
        let mut ty: Option<String> = None;
        let mut ty_after_for: Option<String> = None;
        let mut angle = 0i32;
        while j < to {
            let t = match file.ct(j) {
                Some(t) => t,
                None => break,
            };
            if t.is_punct('{') && angle <= 0 {
                break;
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if t.is_ident("for") {
                after_for = true;
            } else if t.kind == TokKind::Ident && angle == 0 {
                if after_for && ty_after_for.is_none() {
                    ty_after_for = Some(t.text.clone());
                } else if !after_for && ty.is_none() {
                    ty = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let impl_ty = ty_after_for.or(ty).unwrap_or_else(|| "impl".to_string());
        if j >= to {
            return j;
        }
        let end = match_brace(file, j, to);
        self.impl_types.push(impl_ty);
        self.scan(file, j + 1, end, fns, test_regions);
        self.impl_types.pop();
        end + 1
    }
}

/// Attribute texts (`cfg(test)`, `test`, `inline`) of the `#[...]` groups
/// immediately preceding code token `at`, skipping visibility and
/// qualifier tokens (`pub`, `(crate)`, `async`, `unsafe`, `const`, ...).
fn attrs_before(file: &SourceFile, at: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = at;
    while i > 0 {
        i -= 1;
        let t = match file.ct(i) {
            Some(t) => t,
            None => break,
        };
        let skippable = t.is_ident("pub")
            || t.is_ident("async")
            || t.is_ident("unsafe")
            || t.is_ident("const")
            || t.is_ident("extern")
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("in")
            || t.kind == TokKind::Literal
            || t.is_punct('(')
            || t.is_punct(')');
        if skippable {
            continue;
        }
        if t.is_punct(']') {
            // Walk back to the matching `[`, then require a `#` before it.
            let mut depth = 1i32;
            let mut j = i;
            while j > 0 && depth > 0 {
                j -= 1;
                let u = match file.ct(j) {
                    Some(u) => u,
                    None => return out,
                };
                if u.is_punct(']') {
                    depth += 1;
                } else if u.is_punct('[') {
                    depth -= 1;
                }
            }
            if j == 0 || !file.ct(j - 1).is_some_and(|u| u.is_punct('#')) {
                return out;
            }
            let text: String = ((j + 1)..i)
                .filter_map(|k| file.ct(k).map(|t| t.text.clone()))
                .collect::<Vec<_>>()
                .join("");
            out.push(text);
            i = j - 1; // continue from before the `#`
        } else {
            break;
        }
    }
    out
}

/// Code index of the `}` matching the `{` at `open` (clamped to `to - 1`
/// when unbalanced).
fn match_brace(file: &SourceFile, open: usize, to: usize) -> usize {
    match_delim(file, open, to, '{', '}')
}

fn match_delim(file: &SourceFile, open: usize, to: usize, od: char, cd: char) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < to {
        if let Some(t) = file.ct(i) {
            if t.is_punct(od) {
                depth += 1;
            } else if t.is_punct(cd) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    to.saturating_sub(1)
}

/// Callees in a body: `name(...)` free calls, `.name(...)` method calls,
/// and `Path::name(...)` — always the ident directly before the `(`. A
/// path whose last segment is a type (`Row::new(`, capitalised) or `Self`
/// keeps that type: `Row::new`, `Self` read as `self_ty`. Macro bangs
/// (`panic!(`) are *not* calls; QA101 handles them.
fn collect_calls(
    file: &SourceFile,
    from: usize,
    to: usize,
    self_ty: Option<&str>,
) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for i in from..to {
        let Some(t) = file.ct(i) else { continue };
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let next_open = file.ct(i + 1).is_some_and(|n| n.is_punct('('));
        if !next_open {
            continue;
        }
        // `fn name(` is a declaration, `name!(...)` a macro.
        if i > from && file.ct(i - 1).is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        let path = i >= from + 3
            && file.ct(i - 1).is_some_and(|p| p.is_punct(':'))
            && file.ct(i - 2).is_some_and(|p| p.is_punct(':'));
        let qualifier = if path { file.ct(i - 3) } else { None };
        let ty = qualifier.and_then(|q| match q.text.as_str() {
            "Self" => self_ty,
            ty if q.kind == TokKind::Ident && ty.starts_with(|c: char| c.is_ascii_uppercase()) => {
                Some(ty)
            }
            _ => None,
        });
        out.push((ty.map_or_else(|| t.text.clone(), |ty| format!("{ty}::{}", t.text)), i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub struct S;

impl S {
    pub fn alpha(&self) -> usize {
        self.beta();
        helper(1)
    }
    fn beta(&self) {}
}

fn helper(x: usize) -> usize { x }

#[cfg(test)]
mod tests {
    #[test]
    fn checks_alpha() { super::helper(2); }
}
"#;

    #[test]
    fn fns_are_indexed_with_impl_context() {
        let f = SourceFile::parse("crates/demo/src/lib.rs", SRC);
        let names: Vec<&str> = f.fns.iter().map(|i| i.qual.as_str()).collect();
        assert_eq!(names, ["S::alpha", "S::beta", "helper", "checks_alpha"]);
        assert_eq!(f.crate_name, "demo");
    }

    #[test]
    fn test_code_is_flagged_and_regioned() {
        let f = SourceFile::parse("crates/demo/src/lib.rs", SRC);
        let by_name = |n: &str| f.fns.iter().find(|i| i.name == n).unwrap();
        assert!(!by_name("alpha").is_test);
        assert!(by_name("checks_alpha").is_test);
        assert_eq!(f.test_regions.len(), 1);
    }

    #[test]
    fn calls_are_collected_in_order() {
        let f = SourceFile::parse("crates/demo/src/lib.rs", SRC);
        let alpha = f.fns.iter().find(|i| i.name == "alpha").unwrap();
        let callees: Vec<&str> = alpha.calls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(callees, ["beta", "helper"]);
    }

    #[test]
    fn calls_through_a_type_path_keep_the_type() {
        let f = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "impl Quarry { fn open() { Row::new(); Self::new(); rules::extract(); x.new(); new(); } }",
        );
        let callees: Vec<&str> = f.fns[0].calls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(callees, ["Row::new", "Quarry::new", "extract", "new", "new"]);
    }

    #[test]
    fn test_fn_without_cfg_mod_is_flagged_by_attribute() {
        let f = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "#[test]\nfn standalone() { x.unwrap(); }\nfn real() {}",
        );
        assert!(f.fns.iter().find(|i| i.name == "standalone").unwrap().is_test);
        assert!(!f.fns.iter().find(|i| i.name == "real").unwrap().is_test);
    }

    #[test]
    fn trait_impls_attribute_to_the_implementing_type() {
        let f = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "impl<T> Iterator for Wrapper<T> { fn next(&mut self) -> Option<T> { None } }",
        );
        assert_eq!(f.fns[0].qual, "Wrapper::next");
    }
}
