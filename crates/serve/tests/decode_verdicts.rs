//! What the wire decoder accepts, and as what, held to a recorded
//! reference. Each of the 24 payloads in `testdata/wire_frames.bin` is
//! mutated in seeded, structure-aware ways: keys reordered, whitespace
//! injected, unknown keys holding nested junk (an invalid `\u+041` escape
//! and depth bombs among it), duplicated keys, numbers rewritten (`n.0`,
//! `n.5`, `"n"`, `ne0`, past every integer range), unit variants written
//! as objects and data variants as strings, variant objects of two
//! entries, keys dropped, and the payload cut at every 97th byte. Every
//! mutation is decoded; the verdict is a refusal, or the CRC-32 of the
//! value encoded again. `testdata/decode_verdicts.bin` holds the verdicts
//! of the tree-building decoder this one replaced, recorded with
//! `GOLDEN_REGEN=1 cargo test -p quarry-serve --test decode_verdicts` on
//! that code; a decoder that accepts or refuses anything differently, or
//! decodes it to another value, fails here.
//!
//! One difference is intended: a response whose `lsn` key is dropped was
//! refused ("missing field lsn"), and now decodes with `lsn == 0`, as the
//! field's `#[serde(default)]` says. Those cases are listed by label.

use quarry_serve::protocol::{
    decode_request, read_frame, read_response, write_frame, write_request, write_response,
    DEFAULT_MAX_FRAME,
};
use quarry_storage::wal::crc32;
use serde::json::{self, Json};

/// A JSON document as the mutations see it: leaves and keys are kept as
/// the text they are written with, so a mutation can write anything.
#[derive(Clone)]
enum Node {
    Raw(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

impl Node {
    fn of(v: &Json) -> Node {
        match v {
            Json::Arr(items) => Node::Arr(items.iter().map(Node::of).collect()),
            Json::Obj(entries) => {
                Node::Obj(entries.iter().map(|(k, v)| (quoted(k), Node::of(v))).collect())
            }
            leaf => Node::Raw(json::to_string(leaf)),
        }
    }

    /// Visit every node, depth first, with the number of arrays and
    /// objects around it, until `f` says it is done.
    fn visit(&mut self, depth: usize, f: &mut dyn FnMut(&mut Node, usize) -> bool) -> bool {
        if f(self, depth) {
            return true;
        }
        match self {
            Node::Raw(_) => false,
            Node::Arr(items) => items.iter_mut().any(|n| n.visit(depth + 1, f)),
            Node::Obj(entries) => entries.iter_mut().any(|(_, n)| n.visit(depth + 1, f)),
        }
    }

    /// Apply `edit` to the `pick`-th node (modulo their number) that
    /// `is` selects, passing its depth. False if there is none.
    fn edit_one(
        &mut self,
        pick: u64,
        is: impl Fn(&Node, usize) -> bool,
        edit: impl FnOnce(&mut Node, usize),
    ) -> bool {
        let mut count = 0u64;
        self.visit(0, &mut |n, depth| {
            count += u64::from(is(n, depth));
            false
        });
        if count == 0 {
            return false;
        }
        let (target, mut seen, mut edit) = (pick % count, 0u64, Some(edit));
        self.visit(0, &mut |n, depth| {
            if !is(n, depth) {
                return false;
            }
            seen += 1;
            if seen - 1 == target {
                (edit.take().unwrap())(n, depth);
                return true;
            }
            false
        })
    }

    fn render(&self, out: &mut String, ws: &mut dyn FnMut() -> &'static str) {
        out.push_str(ws());
        match self {
            Node::Raw(text) => out.push_str(text),
            Node::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out, ws);
                    out.push_str(ws());
                }
                if items.is_empty() {
                    out.push_str(ws());
                }
                out.push(']');
            }
            Node::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(ws());
                    out.push_str(k);
                    out.push_str(ws());
                    out.push(':');
                    v.render(out, ws);
                    out.push_str(ws());
                }
                if entries.is_empty() {
                    out.push_str(ws());
                }
                out.push('}');
            }
        }
        out.push_str(ws());
    }

    fn text(&self) -> Vec<u8> {
        let mut out = String::new();
        self.render(&mut out, &mut || "");
        out.into_bytes()
    }
}

fn quoted(s: &str) -> String {
    json::to_string(&Json::Str(s.to_string()))
}

fn is_obj(n: &Node) -> bool {
    matches!(n, Node::Obj(_))
}

fn is_full_obj(n: &Node) -> bool {
    matches!(n, Node::Obj(e) if !e.is_empty())
}

fn is_variant_obj(n: &Node) -> bool {
    matches!(n, Node::Obj(e) if e.len() == 1)
}

fn is_int(n: &Node) -> bool {
    matches!(n, Node::Raw(t) if t.parse::<i128>().is_ok())
}

fn is_float(n: &Node) -> bool {
    matches!(n, Node::Raw(t) if t.parse::<i128>().is_err() && t.parse::<f64>().is_ok())
}

fn is_str(n: &Node) -> bool {
    matches!(n, Node::Raw(t) if t.starts_with('"'))
}

/// SplitMix64: the seeded choices of the mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn nested(levels: usize) -> String {
    format!("{}{}", "[".repeat(levels), "]".repeat(levels))
}

/// A named rewrite of a number's text.
type Rewrite = (&'static str, fn(&str) -> String);

/// A named edit of a one-entry object's entries; `Some` replaces the object.
type VariantEdit = (&'static str, fn(&mut Vec<(String, Node)>) -> Option<Node>);

/// The mutations of one payload, each with a label naming what it did.
fn mutations(payload: &[u8], rng: &mut Rng) -> Vec<(String, Vec<u8>)> {
    let tree = Node::of(&json::parse(std::str::from_utf8(payload).unwrap()).unwrap());
    let mut out = Vec::new();
    let mut push = |label: String, node: &Node| out.push((label, node.text()));

    for round in 0..3 {
        let mut t = tree.clone();
        t.visit(0, &mut |n, _| {
            if let Node::Obj(entries) = n {
                rng.shuffle(entries);
            }
            false
        });
        push(format!("reordered keys {round}"), &t);
    }

    const WS: [&str; 6] = ["", "", " ", "\n", "\t", "\r\n  "];
    for round in 0..2 {
        let mut text = String::new();
        tree.render(&mut text, &mut || WS[(rng.next() % 6) as usize]);
        out.push((format!("whitespace {round}"), text.into_bytes()));
    }

    let mut push = |label: String, node: &Node| out.push((label, node.text()));
    let junk = |depth: usize, which: usize| -> String {
        match which {
            0 => r#"{"a":[1,2.5,-0,"x",null,true,{"b":[],"c":{}}],"d":"é\n"}"#.into(),
            1 => r#"["ok","\u+041"]"#.into(),
            2 => nested(200),
            // The entry's value sits inside `depth + 1` containers.
            3 => nested(MAX_DEPTH - depth - 1),
            _ => nested(MAX_DEPTH - depth),
        }
    };
    for which in 0..5 {
        let (mut t, pick, at) = (tree.clone(), rng.next(), rng.next());
        if t.edit_one(
            pick,
            |n, _| is_obj(n),
            |n, depth| {
                let Node::Obj(entries) = n else { unreachable!() };
                let at = (at % (entries.len() as u64 + 1)) as usize;
                entries.insert(at, (quoted("zz_unknown"), Node::Raw(junk(depth, which))));
            },
        ) {
            push(format!("unknown key, junk {which}"), &t);
        }
    }

    for (name, before, value) in [
        ("second, junk", false, Some("\"dup\"")),
        ("first, junk", true, Some("\"dup\"")),
        ("same value", false, None),
    ] {
        for round in 0..2 {
            let (mut t, pick, which) = (tree.clone(), rng.next(), rng.next());
            t.edit_one(
                pick,
                |n, _| is_full_obj(n),
                |n, _| {
                    let Node::Obj(entries) = n else { unreachable!() };
                    let i = (which % entries.len() as u64) as usize;
                    let mut dup = entries[i].clone();
                    if let Some(v) = value {
                        dup.1 = Node::Raw(v.into());
                    }
                    entries.insert(if before { i } else { i + 1 }, dup);
                },
            );
            push(format!("duplicate key, {name} {round}"), &t);
        }
    }

    let rewrites: [Rewrite; 7] = [
        ("n.0", |n| format!("{n}.0")),
        ("n.5", |n| format!("{n}.5")),
        ("\"n\"", |n| format!("\"{n}\"")),
        ("ne0", |n| format!("{n}e0")),
        ("2^64", |_| "18446744073709551616".into()),
        ("-1", |_| "-1".into()),
        ("40 digits", |_| "9".repeat(40)),
    ];
    for round in 0..3 {
        let pick = rng.next();
        for (name, rewrite) in rewrites {
            let mut t = tree.clone();
            if t.edit_one(
                pick,
                |n, _| is_int(n),
                |n, _| {
                    let Node::Raw(text) = n else { unreachable!() };
                    *text = rewrite(text);
                },
            ) {
                push(format!("integer as {name} {round}"), &t);
            }
        }
    }
    for round in 0..2 {
        let pick = rng.next();
        let float_rewrites: [Rewrite; 2] =
            [("integer", |f| f.trim_end_matches(".0").into()), ("string", |f| format!("\"{f}\""))];
        for (name, rewrite) in float_rewrites {
            let mut t = tree.clone();
            if t.edit_one(
                pick,
                |n, _| is_float(n),
                |n, _| {
                    let Node::Raw(text) = n else { unreachable!() };
                    *text = rewrite(text);
                },
            ) {
                push(format!("float as {name} {round}"), &t);
            }
        }
    }

    for round in 0..3 {
        let mut t = tree.clone();
        if t.edit_one(
            rng.next(),
            |n, _| is_str(n),
            |n, _| {
                let Node::Raw(text) = n else { unreachable!() };
                *n = Node::Obj(vec![(text.clone(), Node::Raw("null".into()))]);
            },
        ) {
            push(format!("string as a variant object {round}"), &t);
        }
    }
    let variant_edits: [VariantEdit; 3] = [
        ("as a string", |e| Some(Node::Raw(e[0].0.clone()))),
        ("twice", |e| {
            e.push(e[0].clone());
            None
        }),
        ("with a second entry", |e| {
            e.push((quoted("Other"), Node::Raw("null".into())));
            None
        }),
    ];
    for round in 0..2 {
        let pick = rng.next();
        for (name, edit) in variant_edits {
            let mut t = tree.clone();
            if t.edit_one(
                pick,
                |n, _| is_variant_obj(n),
                |n, _| {
                    let Node::Obj(entries) = n else { unreachable!() };
                    if let Some(replacement) = edit(entries) {
                        *n = replacement;
                    }
                },
            ) {
                push(format!("variant object {name} {round}"), &t);
            }
        }
    }

    if let Node::Obj(entries) = &tree {
        for i in 0..entries.len() {
            let mut t = tree.clone();
            let Node::Obj(entries) = &mut t else { unreachable!() };
            let (key, _) = entries.remove(i);
            push(format!("root key {key} dropped"), &t);
        }
    }
    for round in 0..3 {
        let (mut t, pick, which) = (tree.clone(), rng.next(), rng.next());
        // Below the root: the root's keys are dropped one by one above.
        if t.edit_one(
            pick,
            |n, depth| depth > 0 && is_full_obj(n),
            |n, _| {
                let Node::Obj(entries) = n else { unreachable!() };
                entries.remove((which % entries.len() as u64) as usize);
            },
        ) {
            push(format!("nested key dropped {round}"), &t);
        }
    }

    for cut in (97..payload.len()).step_by(97) {
        out.push((format!("cut at byte {cut}"), payload[..cut].to_vec()));
    }
    out
}

const MAX_DEPTH: usize = json::MAX_DEPTH;

/// A decode's verdict: the CRC-32 of the value encoded again, or `None`
/// for a refusal.
fn verdict(is_request: bool, payload: &[u8]) -> Option<u32> {
    let mut frame = Vec::new();
    if is_request {
        write_request(&mut frame, 0, &decode_request(payload).ok()?).unwrap();
    } else {
        let mut sent = Vec::new();
        write_frame(&mut sent, 0, payload).unwrap();
        write_response(&mut frame, &read_response(&mut sent.as_slice(), DEFAULT_MAX_FRAME).ok()?)
            .unwrap();
    }
    Some(crc32(&frame[22..]))
}

struct Case {
    label: String,
    is_request: bool,
    input: Vec<u8>,
}

fn cases() -> Vec<Case> {
    let golden: &[u8] = include_bytes!("../testdata/wire_frames.bin");
    let mut rest = golden;
    let mut out = Vec::new();
    for frame in 0..24u64 {
        let (_, payload) = read_frame(&mut rest, DEFAULT_MAX_FRAME).unwrap();
        let is_request = frame < 12;
        let mut rng = Rng(0x51_7CC1_B727_220A ^ frame);
        for (label, input) in mutations(&payload, &mut rng) {
            out.push(Case { label: format!("frame {frame}: {label}"), is_request, input });
        }
    }
    assert!(rest.is_empty());
    out
}

/// `[count u32]`, then per case `[crc32 of the input u32][accepted u8]
/// [crc32 of the re-encoding u32]`, little-endian.
fn encode_verdicts(verdicts: &[(u32, Option<u32>)]) -> Vec<u8> {
    let mut out = (verdicts.len() as u32).to_le_bytes().to_vec();
    for &(input, verdict) in verdicts {
        out.extend_from_slice(&input.to_le_bytes());
        out.push(u8::from(verdict.is_some()));
        out.extend_from_slice(&verdict.unwrap_or(0).to_le_bytes());
    }
    out
}

fn decode_verdicts(bytes: &[u8]) -> Vec<(u32, Option<u32>)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let count = u32_at(0) as usize;
    assert_eq!(bytes.len(), 4 + 9 * count, "decode_verdicts.bin is damaged");
    (0..count)
        .map(|i| {
            let at = 4 + 9 * i;
            (u32_at(at), (bytes[at + 4] == 1).then(|| u32_at(at + 5)))
        })
        .collect()
}

#[test]
fn decodes_reproduce_the_recorded_verdicts() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/decode_verdicts.bin");
    let cases = cases();
    let ours: Vec<(u32, Option<u32>)> =
        cases.iter().map(|c| (crc32(&c.input), verdict(c.is_request, &c.input))).collect();
    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::write(path, encode_verdicts(&ours)).unwrap();
        return;
    }
    let recorded = decode_verdicts(&std::fs::read(path).unwrap());
    assert_eq!(recorded.len(), cases.len(), "the mutations are not the ones recorded");

    let (mut accepted, mut newly_accepted, mut wrong) = (0, Vec::new(), Vec::new());
    for ((case, &(input, got)), &(recorded_input, want)) in cases.iter().zip(&ours).zip(&recorded) {
        assert_eq!(input, recorded_input, "{}: not the mutation recorded", case.label);
        accepted += usize::from(want.is_some());
        if !case.is_request && case.label.ends_with("root key \"lsn\" dropped") {
            assert_eq!(want, None, "{}: the reference refused a missing lsn", case.label);
            assert!(got.is_some(), "{}: a missing lsn must default", case.label);
            newly_accepted.push(&case.label);
        } else if got != want {
            wrong.push(format!("{}: recorded {want:?}, now {got:?}", case.label));
        }
    }
    assert!(wrong.is_empty(), "{} verdicts changed:\n{}", wrong.len(), wrong.join("\n"));
    // Every response frame has an `lsn` to drop, and both verdicts occur
    // in number.
    assert_eq!(newly_accepted.len(), 12, "{newly_accepted:?}");
    assert!(accepted > cases.len() / 5 && accepted < cases.len() * 4 / 5, "{accepted} accepted");
}
