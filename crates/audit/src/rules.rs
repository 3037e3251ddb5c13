//! The four QA rule families, plus the suppression-hygiene codes.
//!
//! | code  | severity | checks |
//! |-------|----------|--------|
//! | QA100 | error    | malformed `quarry-audit:` comment, or `allow` without a reason |
//! | QA101 | error    | `unwrap()`/`expect(`/`panic!`-family on a serve-reachable path |
//! | QA101 | warning  | indexing `[...]` with a non-literal index on a serve-reachable path |
//! | QA101 | error    | the same indexing in the page, pager, B-tree and codec modules (`STRICT_INDEXING`) |
//! | QA102 | error    | lock acquisitions violating `audit/lock-order.toml` (in-body and one call-graph hop) |
//! | QA103 | error    | per-crate forbidden constructs (`Mutex<Quarry>` in serve/cluster, `serde_json` in storage, cluster and serve outside `protocol.rs`, `frame_crc` outside the two frame codecs, `std::arch`/`core::arch` outside `crates/crc`, nondeterminism in recovery/replay/replication/promotion) |
//! | QA104 | error    | `unsafe { ... }` block without a `// SAFETY:` comment |
//! | QA105 | warning  | `allow` comment that suppressed nothing |
//!
//! Rules work on the lexed token stream and the heuristic item index, so
//! text inside string literals and comments can never trip them — the
//! precision the old `! grep -rn 'Mutex<Quarry>'` CI step never had.

use crate::callgraph::CallGraph;
use crate::config::Manifest;
use crate::index::{FnItem, SourceFile};
use crate::lexer::TokKind;
use crate::suppress::{collect_allows, matching_allow};
use quarry_exec::diag::{Diagnostic, Severity, Span};

/// Rule codes, exported for tests and docs.
pub mod codes {
    /// Malformed or reason-less suppression comment.
    pub const BAD_ALLOW: &str = "QA100";
    /// Panic-capable construct on a serve-reachable path.
    pub const PANIC_REACHABLE: &str = "QA101";
    /// Lock acquisition violating the manifest order.
    pub const LOCK_ORDER: &str = "QA102";
    /// Per-crate forbidden construct.
    pub const FORBIDDEN: &str = "QA103";
    /// `unsafe` block without a SAFETY comment.
    pub const UNSAFE_UNDOCUMENTED: &str = "QA104";
    /// Suppression that suppressed nothing.
    pub const UNUSED_ALLOW: &str = "QA105";
}

/// One rule hit, carrying both its rendered diagnostic and the stable
/// identity fields the baseline keys on.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule code.
    pub code: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// Qualified enclosing function, or `<file>` for file-scope findings.
    pub item: String,
    /// Raw source text of the flagged span.
    pub snippet: String,
    /// 1-based line of the span start (allow comments match on this).
    pub line: usize,
    /// The caret-renderable diagnostic.
    pub diagnostic: Diagnostic,
}

/// Files where QA101's indexing advisory is an error: the modules that
/// read every byte a page brings from disk, where a bound that "holds by
/// construction" is a bound a damaged page can break.
const STRICT_INDEXING: &[&str] = &[
    "crates/storage/src/btree.rs",
    "crates/storage/src/codec.rs",
    "crates/storage/src/page.rs",
    "crates/storage/src/pager.rs",
];

/// Macro names whose invocation is an unconditional (or arm-local) panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Idents that look like calls/indexees but are keywords.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "where", "impl", "dyn", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "unsafe", "async", "await",
];

/// Run every rule over `files`, then apply `allow` suppressions. Returns
/// the active findings (suppressed ones removed, QA100/QA105 hygiene
/// findings added), sorted by (path, span, code).
pub fn run_all(files: &[SourceFile], graph: &CallGraph, manifest: &Manifest) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        qa101_panic_reachability(file, fi, graph, &mut findings);
        qa102_lock_order(file, fi, files, graph, manifest, &mut findings);
        qa103_forbidden(file, &mut findings);
        qa104_unsafe_hygiene(file, &mut findings);
    }
    let mut out = Vec::new();
    for file in files {
        apply_suppressions(file, &mut findings, &mut out);
    }
    out.extend(findings);
    out.sort_by(|a, b| {
        (a.path.as_str(), a.diagnostic.span.start, a.code).cmp(&(
            b.path.as_str(),
            b.diagnostic.span.start,
            b.code,
        ))
    });
    out
}

/// Move `pending` findings for `file` into `out`, dropping suppressed
/// ones and appending QA100/QA105 hygiene findings.
fn apply_suppressions(file: &SourceFile, pending: &mut Vec<Finding>, out: &mut Vec<Finding>) {
    let (allows, malformed) = collect_allows(file);
    let mut used = vec![false; allows.len()];

    let mut rest = Vec::new();
    for f in pending.drain(..) {
        if f.path != file.path {
            rest.push(f);
            continue;
        }
        match matching_allow(&allows, f.code, f.line) {
            Some(i) if !allows[i].reason.is_empty() => used[i] = true,
            // A reason-less allow still suppresses its target — otherwise
            // the pair (finding + QA100) would double-report one site —
            // but QA100 below forces a reason to be written.
            Some(i) => used[i] = true,
            None => rest.push(f),
        }
    }
    *pending = rest;

    for (span, why) in malformed {
        out.push(file_finding(
            file,
            codes::BAD_ALLOW,
            span,
            format!("malformed quarry-audit comment: {why}"),
            Some("write `// quarry-audit: allow(QA101, reason = \"...\")`".to_string()),
            Severity::Error,
        ));
    }
    for (i, a) in allows.iter().enumerate() {
        if a.reason.is_empty() {
            out.push(file_finding(
                file,
                codes::BAD_ALLOW,
                a.span,
                "allow without a reason".to_string(),
                Some("suppressions must carry `reason = \"...\"`".to_string()),
                Severity::Error,
            ));
        } else if !used[i] {
            out.push(file_finding(
                file,
                codes::UNUSED_ALLOW,
                a.span,
                format!("allow({}) suppressed nothing", a.codes.join(", ")),
                Some("delete the stale suppression".to_string()),
                Severity::Warning,
            ));
        }
    }
}

fn file_finding(
    file: &SourceFile,
    code: &'static str,
    span: Span,
    message: String,
    help: Option<String>,
    severity: Severity,
) -> Finding {
    let snippet = file.src.get(span.start..span.end).unwrap_or("").to_string();
    let mut d = Diagnostic { code, severity, span, message, help: None };
    d.help = help;
    Finding {
        code,
        path: file.path.clone(),
        item: "<file>".to_string(),
        snippet,
        line: file.line_of(span.start),
        diagnostic: d,
    }
}

fn fn_finding(
    file: &SourceFile,
    item: &FnItem,
    code: &'static str,
    span: Span,
    message: String,
    help: &str,
    severity: Severity,
) -> Finding {
    let snippet = file.src.get(span.start..span.end).unwrap_or("").to_string();
    Finding {
        code,
        path: file.path.clone(),
        item: item.qual.clone(),
        snippet,
        line: file.line_of(span.start),
        diagnostic: Diagnostic {
            code,
            severity,
            span,
            message,
            help: if help.is_empty() { None } else { Some(help.to_string()) },
        },
    }
}

// ---------------------------------------------------------------- QA101

/// Panic-capable constructs in functions reachable from `quarry-serve`
/// request handling: a wire request must come back as a typed error, never
/// as a worker panic.
fn qa101_panic_reachability(
    file: &SourceFile,
    fi: usize,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let indexing = if STRICT_INDEXING.contains(&file.path.as_str()) {
        Severity::Error
    } else {
        Severity::Warning
    };
    for (ii, item) in file.fns.iter().enumerate() {
        if item.is_test || !graph.is_reachable((fi, ii)) || item.body.1 <= item.body.0 {
            continue;
        }
        let (from, to) = item.body;
        for i in from..to {
            let Some(t) = file.ct(i) else { continue };
            if t.kind != TokKind::Ident {
                // Indexing: `expr[ ... ]` with a non-literal index.
                if t.is_punct('[') && is_index_context(file, from, i) {
                    if let Some((end, literal)) = bracket_contents(file, i, to) {
                        if !literal {
                            let span = t.span.to(file.ct(end).map(|e| e.span).unwrap_or(t.span));
                            out.push(fn_finding(
                                file,
                                item,
                                codes::PANIC_REACHABLE,
                                span,
                                format!(
                                    "indexing with a non-literal index in serve-reachable `{}`",
                                    item.qual
                                ),
                                "prefer `.get(..)`, or document the bounds invariant with an allow",
                                indexing,
                            ));
                        }
                    }
                }
                continue;
            }
            // `.unwrap()` / `.expect(`
            if (t.text == "unwrap" || t.text == "expect")
                && i > from
                && file.ct(i - 1).is_some_and(|p| p.is_punct('.'))
                && file.ct(i + 1).is_some_and(|n| n.is_punct('('))
            {
                out.push(fn_finding(
                    file,
                    item,
                    codes::PANIC_REACHABLE,
                    t.span,
                    format!("`{}()` in serve-reachable `{}`", t.text, item.qual),
                    "return a typed error, or allow(QA101) with the infallibility argument",
                    Severity::Error,
                ));
            }
            // `panic!(` family
            if PANIC_MACROS.contains(&t.text.as_str())
                && file.ct(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(fn_finding(
                    file,
                    item,
                    codes::PANIC_REACHABLE,
                    t.span,
                    format!("`{}!` in serve-reachable `{}`", t.text, item.qual),
                    "return a typed error, or allow(QA101) with the invariant that rules it out",
                    Severity::Error,
                ));
            }
        }
    }
}

/// Is the `[` at code index `i` an index expression? True when the
/// previous code token ends an expression (identifier that is not a
/// keyword, `)`, or `]`).
fn is_index_context(file: &SourceFile, from: usize, i: usize) -> bool {
    if i == from {
        return false;
    }
    match file.ct(i - 1) {
        Some(p) if p.kind == TokKind::Ident => !KEYWORDS.contains(&p.text.as_str()),
        Some(p) => p.is_punct(')') || p.is_punct(']'),
        None => false,
    }
}

/// Contents of the bracket group opening at `i`: returns
/// `(closing index, all_literal)` where `all_literal` means every token is
/// an integer literal or range punctuation — `[0]`, `[..4]`, `[0..=2]`.
fn bracket_contents(file: &SourceFile, i: usize, to: usize) -> Option<(usize, bool)> {
    let mut depth = 0i32;
    let mut literal = true;
    let mut any = false;
    for j in i..to {
        let t = file.ct(j)?;
        if t.is_punct('[') {
            depth += 1;
            continue;
        }
        if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((j, literal && any));
            }
            continue;
        }
        any = true;
        let ok = t.kind == TokKind::Int || t.is_punct('.') || t.is_punct('=');
        if !ok {
            literal = false;
        }
    }
    None
}

// ---------------------------------------------------------------- QA102

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Field name (`tables`).
    name: String,
    /// Manifest rank.
    rank: usize,
    /// Code-token index of the field ident.
    at: usize,
    /// Code-token index where the guard is conservatively dropped: the
    /// closing brace of the innermost block containing the acquisition.
    /// (A temporary guard dies at the statement's `;`, earlier than
    /// this — treating it as block-scoped only widens the held window,
    /// which errs toward reporting, never toward missing.)
    scope_end: usize,
    /// Span of `name.lock()`-ish expression.
    span: Span,
}

/// Lock acquisitions in a body: `NAME.lock()`, `NAME.read()`,
/// `NAME.write()` with zero arguments, where NAME is ranked in the
/// manifest. Leaves (`manifest.lock_leaves`) are contractually never held
/// across another acquisition and do not participate.
fn acquisitions(file: &SourceFile, item: &FnItem, manifest: &Manifest) -> Vec<Acquisition> {
    let (from, to) = item.body;
    let mut out = Vec::new();
    for i in from..to {
        let Some(t) = file.ct(i) else { continue };
        let is_acq = matches!(t.text.as_str(), "lock" | "read" | "write")
            && t.kind == TokKind::Ident
            && file.ct(i + 1).is_some_and(|n| n.is_punct('('))
            && file.ct(i + 2).is_some_and(|n| n.is_punct(')'))
            && i >= from + 2
            && file.ct(i - 1).is_some_and(|p| p.is_punct('.'));
        if !is_acq {
            continue;
        }
        let Some(field) = file.ct(i - 2).filter(|f| f.kind == TokKind::Ident) else { continue };
        let Some(rank) = manifest.rank(&field.text) else { continue };
        let end_span = file.ct(i + 2).map(|e| e.span).unwrap_or(t.span);
        // Innermost enclosing block: first point where the running brace
        // counter dips below zero.
        let mut depth = 0i32;
        let mut scope_end = to;
        for j in i..to {
            match file.ct(j) {
                Some(b) if b.is_punct('{') => depth += 1,
                Some(b) if b.is_punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        scope_end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(Acquisition {
            name: field.text.clone(),
            rank,
            at: i,
            scope_end,
            span: field.span.to(end_span),
        });
    }
    out
}

/// Lock-order violations against the manifest, within each body and
/// across one heuristic call-graph hop.
fn qa102_lock_order(
    file: &SourceFile,
    fi: usize,
    files: &[SourceFile],
    graph: &CallGraph,
    manifest: &Manifest,
    out: &mut Vec<Finding>,
) {
    let _ = fi;
    for item in &file.fns {
        if item.is_test || item.body.1 <= item.body.0 {
            continue;
        }
        let acqs = acquisitions(file, item, manifest);

        // In-body: any later acquisition ranked *before* an earlier one
        // whose guard is still in scope.
        for (j, b) in acqs.iter().enumerate() {
            if let Some(a) = acqs[..j].iter().find(|a| a.rank > b.rank && a.scope_end > b.at) {
                out.push(fn_finding(
                    file,
                    item,
                    codes::LOCK_ORDER,
                    b.span,
                    format!(
                        "`{}` acquired after `{}` in `{}`, but the manifest orders `{}` first",
                        b.name, a.name, item.qual, b.name
                    ),
                    "reorder the acquisitions to match audit/lock-order.toml, or fix the manifest",
                    Severity::Error,
                ));
            }
        }

        // One hop: a call made after acquiring `a` whose callee directly
        // acquires something ranked before `a`.
        for (callee, pos) in &item.calls {
            let held: Vec<&Acquisition> =
                acqs.iter().filter(|a| a.at < *pos && a.scope_end > *pos).collect();
            if held.is_empty() {
                continue;
            }
            for &(cfi, cii) in graph.named(callee) {
                let cfile = &files[cfi];
                let citem = &cfile.fns[cii];
                for inner in acquisitions(cfile, citem, manifest) {
                    if let Some(a) = held.iter().find(|a| a.rank > inner.rank) {
                        let span = file.ct(*pos).map(|t| t.span).unwrap_or(item.name_span);
                        out.push(fn_finding(
                            file,
                            item,
                            codes::LOCK_ORDER,
                            span,
                            format!(
                                "`{}` calls `{}` (acquires `{}`) after acquiring `{}`; the manifest orders `{}` first",
                                item.qual, citem.qual, inner.name, a.name, inner.name
                            ),
                            "drop the held guard before the call, or fix audit/lock-order.toml",
                            Severity::Error,
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- QA103

/// Idents whose presence in recovery/replay/replication code makes
/// replay (or a promotion decision) nondeterministic.
const NONDETERMINISM: &[&str] = &["SystemTime", "thread_rng", "random", "from_entropy"];

/// Per-crate forbidden constructs. Scans file-scope code (struct fields
/// included), skipping `#[cfg(test)]` regions.
fn qa103_forbidden(file: &SourceFile, out: &mut Vec<Finding>) {
    let scan = |i: usize| !file.in_test_region(i);

    if file.crate_name == "serve" || file.crate_name == "cluster" {
        // `Mutex<...Quarry...>`: one facade mutex serializing the serving
        // path is the PR-6 regression this rule locks out (previously the
        // `! grep -rn 'Mutex<Quarry>'` CI step). The cluster crate sits on
        // the same request path — the router and shard nodes must never
        // reintroduce the facade mutex either.
        for i in 0..file.code.len() {
            if !scan(i) {
                continue;
            }
            let Some(t) = file.ct(i) else { continue };
            if !t.is_ident("Mutex") || !file.ct(i + 1).is_some_and(|n| n.is_punct('<')) {
                continue;
            }
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut hit: Option<Span> = None;
            while let Some(u) = file.ct(j) {
                if u.is_punct('<') {
                    depth += 1;
                } else if u.is_punct('>') {
                    // `->` inside generic args (fn pointer) is not a closer.
                    if !file.ct(j - 1).is_some_and(|p| p.is_punct('-')) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                } else if u.is_ident("Quarry") {
                    hit = Some(u.span);
                }
                j += 1;
            }
            if let Some(qspan) = hit {
                out.push(file_finding(
                    file,
                    codes::FORBIDDEN,
                    t.span.to(qspan),
                    "`Mutex<Quarry>` in crates/serve: the facade mutex serializes every request"
                        .to_string(),
                    Some(
                        "reads go through SharedQuarry::snapshot(), store writes through \
                         SharedQuarry::db(), and only a Qdl through with_writer"
                            .to_string(),
                    ),
                    Severity::Error,
                ));
            }
        }
    }

    // Every persisted artefact has one binary format: nothing in
    // `crates/storage` reads or writes JSON. And the wire payload's
    // encoding has one home: in `crates/serve` and `crates/cluster` only
    // `protocol.rs` names it, so changing it is a one-module change.
    let json_hint = match file.crate_name.as_str() {
        "storage" => Some("storage encodes through quarry_storage::codec only"),
        "serve" if file.path.ends_with("/protocol.rs") => None,
        "serve" | "cluster" => Some("encode and decode through quarry_serve::protocol"),
        _ => None,
    };
    if let Some(hint) = json_hint {
        for i in 0..file.code.len() {
            if !scan(i) {
                continue;
            }
            let Some(t) = file.ct(i) else { continue };
            if t.is_ident("serde_json") {
                out.push(file_finding(
                    file,
                    codes::FORBIDDEN,
                    t.span,
                    format!("serde_json in crates/{}", file.crate_name),
                    Some(hint.to_string()),
                    Severity::Error,
                ));
            }
        }
    }

    // The `[len][crc][payload]` frame has one codec, in storage's `wal.rs`
    // (and the wire's `QRYW` header, a different frame, one in serve's
    // `protocol.rs`). Whoever else names the frame checksum is writing or
    // parsing the layout a second time.
    let owns_a_frame = (file.crate_name == "storage" && file.path.ends_with("/wal.rs"))
        || (file.crate_name == "serve" && file.path.ends_with("/protocol.rs"));
    if !owns_a_frame {
        for i in 0..file.code.len() {
            if !scan(i) {
                continue;
            }
            let Some(t) = file.ct(i) else { continue };
            if t.is_ident("frame_crc") {
                out.push(file_finding(
                    file,
                    codes::FORBIDDEN,
                    t.span,
                    "frame_crc outside the frame codec".to_string(),
                    Some(
                        "frames are written and read by quarry_storage::wal::{encode_frame, decode_frame}"
                            .to_string(),
                    ),
                    Severity::Error,
                ));
            }
        }
    }

    // Platform intrinsics stay in one crate. The CRC kernel needs
    // `std::arch`, and calling a `#[target_feature]` function needs
    // `unsafe`: both live in `crates/crc`, behind one audited call, and
    // every other crate reaches them through `quarry_crc`. Test code is no
    // exception.
    if file.crate_name != "crc" {
        for i in 0..file.code.len() {
            let Some(t) = file.ct(i) else { continue };
            if let Some(arch) = arch_path(file, i) {
                out.push(file_finding(
                    file,
                    codes::FORBIDDEN,
                    t.span.to(arch),
                    format!("`{}::arch` outside crates/crc", t.text),
                    Some(
                        "platform intrinsics live in quarry-crc, behind its one audited `unsafe` \
                         call; checksum through quarry_crc::{crc32, update}"
                            .to_string(),
                    ),
                    Severity::Error,
                ));
            }
        }
    }

    // Replication replay and promotion decisions are held to the same
    // standard as recovery: a replica's state must be a pure function of
    // the shipped bytes, and promotion must not consult clocks or
    // randomness (wall time on two nodes is not an ordering).
    let replay_code = (file.crate_name == "storage"
        && (file.path.contains("recovery")
            || file.path.contains("checkpoint")
            || file.path.contains("overlay")
            || file.path.contains("replication")
            || file.path.ends_with("/wal.rs")))
        || (file.crate_name == "serve" && file.path.contains("replication"))
        || (file.crate_name == "cluster"
            && (file.path.ends_with("/router.rs") || file.path.ends_with("/node.rs")));
    if replay_code {
        for i in 0..file.code.len() {
            if !scan(i) {
                continue;
            }
            let Some(t) = file.ct(i) else { continue };
            let named = t.kind == TokKind::Ident && NONDETERMINISM.contains(&t.text.as_str());
            let rand_path = t.is_ident("rand")
                && file.ct(i + 1).is_some_and(|a| a.is_punct(':'))
                && file.ct(i + 2).is_some_and(|b| b.is_punct(':'));
            if named || rand_path {
                out.push(file_finding(
                    file,
                    codes::FORBIDDEN,
                    t.span,
                    format!("nondeterministic `{}` in recovery/replay code", t.text),
                    Some("replay must be a pure function of the log bytes".to_string()),
                    Severity::Error,
                ));
            }
        }
    }
}

/// The span of `arch` when code token `i` starts a `std::arch` or
/// `core::arch` path, directly or as a member of a `use std::{..}` group.
fn arch_path(file: &SourceFile, i: usize) -> Option<Span> {
    let t = file.ct(i)?;
    let rooted = (t.is_ident("std") || t.is_ident("core"))
        && file.ct(i + 1)?.is_punct(':')
        && file.ct(i + 2)?.is_punct(':');
    if !rooted {
        return None;
    }
    let next = file.ct(i + 3)?;
    if next.is_ident("arch") {
        return Some(next.span);
    }
    if !next.is_punct('{') {
        return None;
    }
    // A member of the group: `arch` right after its `{` or a `,` at depth 1.
    let (mut depth, mut j) = (1usize, i + 4);
    while depth > 0 {
        let u = file.ct(j)?;
        if u.is_punct('{') {
            depth += 1;
        } else if u.is_punct('}') {
            depth -= 1;
        } else if depth == 1
            && u.is_ident("arch")
            && file.ct(j - 1).is_some_and(|p| p.is_punct('{') || p.is_punct(','))
        {
            return Some(u.span);
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------- QA104

/// `unsafe { ... }` blocks must carry a `// SAFETY:` comment on the same
/// line or in the contiguous comment block directly above it.
fn qa104_unsafe_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    // line -> (any comment on it, any SAFETY: comment on it)
    let mut comment_lines: std::collections::HashMap<usize, bool> =
        std::collections::HashMap::new();
    for c in file.tokens.iter().filter(|c| c.is_comment()) {
        let entry = comment_lines.entry(file.line_of(c.span.start)).or_insert(false);
        *entry |= c.text.contains("SAFETY:");
    }
    for i in 0..file.code.len() {
        let Some(t) = file.ct(i) else { continue };
        if !t.is_ident("unsafe") || !file.ct(i + 1).is_some_and(|n| n.is_punct('{')) {
            continue;
        }
        let line = file.line_of(t.span.start);
        // Same-line comment, or walk the unbroken run of comment lines
        // immediately above — a SAFETY: anywhere in it documents the block.
        let mut documented = comment_lines.get(&line).copied().unwrap_or(false);
        let mut l = line;
        while !documented && l > 1 {
            l -= 1;
            match comment_lines.get(&l) {
                Some(&safety) => documented = safety,
                None => break,
            }
        }
        if !documented {
            out.push(file_finding(
                file,
                codes::UNSAFE_UNDOCUMENTED,
                t.span,
                "unsafe block without a `// SAFETY:` comment".to_string(),
                Some(
                    "state the invariant that makes this sound directly above the block"
                        .to_string(),
                ),
                Severity::Error,
            ));
        }
    }
}

// -------------------------------------------------------------- helpers

/// Group findings per file into renderable reports (used by the CLI and
/// the golden tests).
pub fn reports(files: &[SourceFile], findings: &[Finding]) -> Vec<quarry_exec::diag::LintReport> {
    let mut out = Vec::new();
    for file in files {
        let ds: Vec<Diagnostic> =
            findings.iter().filter(|f| f.path == file.path).map(|f| f.diagnostic.clone()).collect();
        if !ds.is_empty() {
            out.push(quarry_exec::diag::LintReport::new(file.path.clone(), file.src.clone(), ds));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        let manifest = Manifest::parse(
            "order = [\"writer\", \"tables\", \"active\", \"docs\"]\nleaves = [\"qcache\"]\n",
        )
        .unwrap();
        let files: Vec<SourceFile> = sources.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let graph = CallGraph::build(&files);
        run_all(&files, &graph, &manifest)
    }

    #[test]
    fn qa101_flags_reachable_unwrap_but_not_unreachable_or_test() {
        let fs = run(&[
            (
                "crates/serve/src/server.rs",
                "fn handle() { helper(); }\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
            ),
            (
                "crates/query/src/lib.rs",
                "pub fn helper() { x.unwrap(); }\npub fn island_fn() { y.expect(\"no\"); }",
            ),
        ]);
        let q101: Vec<&Finding> = fs.iter().filter(|f| f.code == codes::PANIC_REACHABLE).collect();
        assert_eq!(q101.len(), 1, "{q101:#?}");
        assert_eq!(q101[0].item, "helper");
        assert_eq!(q101[0].snippet, "unwrap");
    }

    #[test]
    fn qa101_indexing_warns_on_non_literal_only() {
        let fs = run(&[(
            "crates/serve/src/server.rs",
            "fn handle(v: &[u8], i: usize) { let _ = v[i]; let _ = v[0]; let _ = &v[..4]; }",
        )]);
        let idx: Vec<&Finding> = fs
            .iter()
            .filter(|f| {
                f.code == codes::PANIC_REACHABLE && f.diagnostic.severity == Severity::Warning
            })
            .collect();
        assert_eq!(idx.len(), 1, "{idx:#?}");
        assert!(idx[0].snippet.contains('i'));
    }

    #[test]
    fn qa101_indexing_is_an_error_in_the_modules_that_read_pages() {
        let handle = "fn handle(v: &[u8], i: usize) { let _ = v[i]; read(v, i); tail(v, i); }";
        let read = "pub fn read(v: &[u8], i: usize) { let _ = v[i]; let _ = &v[..4]; }";
        let mut sources = vec![("crates/serve/src/server.rs", handle)];
        sources.extend(STRICT_INDEXING.iter().map(|path| (*path, read)));
        sources.push(("crates/storage/src/wal.rs", "pub fn tail(v: &[u8], i: usize) { v[i]; }"));
        let fs = run(&sources);
        let indexing: Vec<(&str, Severity)> = fs
            .iter()
            .filter(|f| f.code == codes::PANIC_REACHABLE)
            .map(|f| (f.path.as_str(), f.diagnostic.severity))
            .collect();
        let mut want: Vec<(&str, Severity)> =
            STRICT_INDEXING.iter().map(|path| (*path, Severity::Error)).collect();
        want.push(("crates/serve/src/server.rs", Severity::Warning));
        want.push(("crates/storage/src/wal.rs", Severity::Warning));
        want.sort_by_key(|(path, _)| *path);
        assert_eq!(indexing, want);
    }

    #[test]
    fn qa102_flags_inverted_order_in_body_and_across_a_hop() {
        let fs = run(&[(
            "crates/storage/src/lib.rs",
            "fn bad(&self) { let a = self.active.lock(); let t = self.tables.lock(); }\n\
             fn hop(&self) { let d = self.docs.lock(); inner_locker(); }\n\
             fn inner_locker() { STATE.tables.lock(); }\n\
             fn good(&self) { let t = self.tables.lock(); let a = self.active.lock(); }",
        )]);
        let q102: Vec<&Finding> = fs.iter().filter(|f| f.code == codes::LOCK_ORDER).collect();
        assert_eq!(q102.len(), 2, "{q102:#?}");
        assert!(q102.iter().any(|f| f.item == "bad"));
        assert!(q102.iter().any(|f| f.item == "hop" && f.snippet == "inner_locker"));
    }

    #[test]
    fn qa102_dropped_guard_does_not_order_later_acquisitions() {
        // The `active` guard dies at its block's closing brace, so the
        // later `tables` acquisition is not an inversion (the checkpoint
        // quiescence-check pattern).
        let fs = run(&[(
            "crates/storage/src/lib.rs",
            "fn ckpt(&self) {\n    { let a = self.active.lock(); if a.len() > 0 { return; } }\n    let t = self.tables.lock();\n}",
        )]);
        assert!(!fs.iter().any(|f| f.code == codes::LOCK_ORDER), "{fs:#?}");
    }

    #[test]
    fn qa103_mutex_quarry_fires_only_in_serve_and_not_in_strings() {
        let fs = run(&[
            (
                "crates/serve/src/state.rs",
                "struct S { q: Mutex<Quarry> }\nconst P: &str = \"Mutex<Quarry>\";",
            ),
            ("crates/core/src/lib.rs", "struct T { q: Mutex<Quarry> }"),
        ]);
        let q103: Vec<&Finding> = fs.iter().filter(|f| f.code == codes::FORBIDDEN).collect();
        assert_eq!(q103.len(), 1, "{q103:#?}");
        assert_eq!(q103[0].path, "crates/serve/src/state.rs");
    }

    #[test]
    fn qa103_mutex_quarry_also_covers_the_cluster_request_path() {
        let fs = run(&[("crates/cluster/src/router.rs", "struct R { q: Mutex<Quarry> }")]);
        let q103: Vec<&Finding> = fs.iter().filter(|f| f.code == codes::FORBIDDEN).collect();
        assert_eq!(q103.len(), 1, "{q103:#?}");
    }

    #[test]
    fn qa103_nondeterminism_in_replication_and_promotion_code() {
        // Promotion decisions and replay must not consult clocks or
        // randomness; Instant-based backoff lives outside these checks
        // because `Instant` is not on the NONDETERMINISM list.
        let fs = run(&[
            ("crates/serve/src/replication.rs", "fn pick() { let t = SystemTime::now(); }"),
            ("crates/cluster/src/node.rs", "fn promote() { let r = rand::random(); }"),
            ("crates/cluster/src/ring.rs", "fn ok() { let t = SystemTime::now(); }"),
        ]);
        let q103: Vec<&Finding> = fs.iter().filter(|f| f.code == codes::FORBIDDEN).collect();
        // serve/replication: 1; cluster/node: 2 (the `rand::` path and
        // `random`); ring.rs is not a decision path, so 0.
        assert_eq!(q103.len(), 3, "{q103:#?}");
        assert!(q103.iter().all(|f| !f.path.contains("ring")));
    }

    #[test]
    fn qa103_serde_json_is_forbidden_in_storage_and_outside_protocol_rs() {
        let fs = run(&[
            ("crates/storage/src/pager.rs", "use serde_json::to_vec;"),
            ("crates/storage/src/snapshot.rs", "use serde_json::to_vec;"),
            ("crates/serve/src/server.rs", "use serde_json::to_vec;"),
            ("crates/cluster/src/router.rs", "use serde_json::to_vec;"),
            ("crates/serve/src/protocol.rs", "use serde_json::to_vec;"),
            ("crates/exec/src/metrics.rs", "use serde_json::to_vec;"),
        ]);
        let mut q103: Vec<&str> =
            fs.iter().filter(|f| f.code == codes::FORBIDDEN).map(|f| f.path.as_str()).collect();
        q103.sort_unstable();
        assert_eq!(
            q103,
            [
                "crates/cluster/src/router.rs",
                "crates/serve/src/server.rs",
                "crates/storage/src/pager.rs",
                "crates/storage/src/snapshot.rs",
            ]
        );
    }

    #[test]
    fn qa103_frame_crc_is_named_by_the_two_frame_codecs_only() {
        let fs = run(&[
            ("crates/storage/src/filestore.rs", "use crate::wal::frame_crc;"),
            ("crates/serve/src/replication.rs", "fn f(p: &[u8]) -> u32 { frame_crc(p) }"),
            ("crates/storage/src/wal.rs", "pub fn frame_crc(p: &[u8]) -> u32 { 0 }"),
            ("crates/serve/src/protocol.rs", "use quarry_storage::wal::frame_crc;"),
            ("crates/storage/src/pager.rs", "// frame_crc, in a comment\nfn f() {}"),
        ]);
        let mut q103: Vec<&str> =
            fs.iter().filter(|f| f.code == codes::FORBIDDEN).map(|f| f.path.as_str()).collect();
        q103.sort_unstable();
        assert_eq!(q103, ["crates/serve/src/replication.rs", "crates/storage/src/filestore.rs"]);
    }

    #[test]
    fn qa103_platform_intrinsics_stay_in_the_crc_crate() {
        let fs = run(&[
            ("crates/storage/src/wal.rs", "use std::arch::x86_64::_mm_xor_si128;"),
            ("crates/serve/src/protocol.rs", "use core::{mem, arch::x86_64::__m128i};"),
            (
                "crates/storage/src/page.rs",
                "#[cfg(test)]\nmod tests { fn t() { let v = std::arch::x86_64::_mm_setzero_si128(); } }",
            ),
            ("crates/crc/src/clmul.rs", "use std::arch::x86_64::{__m128i, _mm_xor_si128};"),
            (
                "crates/exec/src/pool.rs",
                "// std::arch, in a comment\nconst S: &str = \"core::arch\";\n\
                 fn f() -> bool { std::is_x86_feature_detected!(\"sse2\") && crate::arch::ok() }\n\
                 use std::{mem, sync::{arch, Arc}};",
            ),
        ]);
        let mut q103: Vec<&str> =
            fs.iter().filter(|f| f.code == codes::FORBIDDEN).map(|f| f.path.as_str()).collect();
        q103.sort_unstable();
        // The crc crate may name it; a comment, a string, a feature check,
        // a crate's own `arch` module and a nested group's member may not
        // fire; a test region is no exception.
        assert_eq!(
            q103,
            [
                "crates/serve/src/protocol.rs",
                "crates/storage/src/page.rs",
                "crates/storage/src/wal.rs"
            ]
        );
    }

    #[test]
    fn qa103_nondeterminism_in_replay_code() {
        let fs = run(&[(
            "crates/storage/src/structured/recovery.rs",
            "fn replay() { let t = SystemTime::now(); let r = rand::random(); }",
        )]);
        // SystemTime, the `rand::` path, and `random` each fire.
        let q103 = fs.iter().filter(|f| f.code == codes::FORBIDDEN).count();
        assert_eq!(q103, 3);
    }

    #[test]
    fn qa104_unsafe_needs_safety_comment() {
        let fs = run(&[(
            "crates/corpus/src/lib.rs",
            "fn a() { unsafe { x() } }\nfn b() {\n    // SAFETY: bytes stay ASCII\n    unsafe { y() }\n}",
        )]);
        let q104: Vec<&Finding> =
            fs.iter().filter(|f| f.code == codes::UNSAFE_UNDOCUMENTED).collect();
        assert_eq!(q104.len(), 1, "{q104:#?}");
        assert_eq!(q104[0].item, "<file>");
    }

    #[test]
    fn qa104_safety_anywhere_in_the_contiguous_comment_block_counts() {
        let fs = run(&[(
            "crates/corpus/src/lib.rs",
            "fn a() {\n    // SAFETY: only ASCII digits are written,\n    // so the buffer stays\n    // valid UTF-8.\n    unsafe { y() }\n}\nfn b() {\n    // SAFETY: too far away\n\n    unsafe { z() }\n}",
        )]);
        // `a` is documented (SAFETY: heads a contiguous comment run);
        // `b` is not (a blank line breaks the run).
        let q104 = fs.iter().filter(|f| f.code == codes::UNSAFE_UNDOCUMENTED).count();
        assert_eq!(q104, 1, "{fs:#?}");
    }

    #[test]
    fn allow_with_reason_suppresses_and_unused_allow_warns() {
        let fs = run(&[(
            "crates/serve/src/server.rs",
            "fn handle() {\n    // quarry-audit: allow(QA101, reason = \"length checked\")\n    x.unwrap();\n}\n// quarry-audit: allow(QA104, reason = \"stale\")\nfn other() {}\n",
        )]);
        assert!(!fs.iter().any(|f| f.code == codes::PANIC_REACHABLE), "{fs:#?}");
        let unused: Vec<&Finding> = fs.iter().filter(|f| f.code == codes::UNUSED_ALLOW).collect();
        assert_eq!(unused.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_qa100_and_still_suppresses_its_target() {
        let fs = run(&[(
            "crates/serve/src/server.rs",
            "fn handle() {\n    // quarry-audit: allow(QA101)\n    x.unwrap();\n}\n",
        )]);
        assert_eq!(fs.iter().filter(|f| f.code == codes::BAD_ALLOW).count(), 1);
        assert!(!fs.iter().any(|f| f.code == codes::PANIC_REACHABLE));
    }
}
