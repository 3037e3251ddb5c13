//! A small regular-expression engine, built from scratch.
//!
//! The offline toolchain has no `regex` crate, and the paper's extraction
//! operators are pattern-driven, so the engine is part of the substrate. It
//! compiles a pattern to a bytecode program and runs a backtracking VM with
//! capture groups and a step budget (the budget turns pathological
//! backtracking into a clean no-match instead of a hang; all internal
//! patterns are small and well-behaved).
//!
//! Supported syntax: literals, `.`, escapes `\d \w \s \D \W \S` and escaped
//! metacharacters, classes `[a-z0-9_]` / `[^...]` (with the same escapes),
//! quantifiers `* + ? {m} {m,} {m,n}` (greedy, plus lazy `*?` `+?` `??`),
//! alternation `|`, capture groups `( )`, anchors `^ $`.

use std::fmt;

/// Pattern-compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError(pub String);

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error: {}", self.0)
    }
}

impl std::error::Error for RegexError {}

/// One matched region, in byte offsets of the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Inclusive start byte.
    pub start: usize,
    /// Exclusive end byte.
    pub end: usize,
}

impl Match {
    /// Slice the haystack to the matched text.
    pub fn as_str<'a>(&self, text: &'a str) -> &'a str {
        &text[self.start..self.end]
    }
}

/// Capture groups of one match. Group 0 is the whole match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures {
    groups: Vec<Option<Match>>,
}

impl Captures {
    /// The n-th group's match, if that group participated.
    pub fn get(&self, n: usize) -> Option<Match> {
        self.groups.get(n).copied().flatten()
    }

    /// The n-th group's text.
    pub fn text<'a>(&self, n: usize, haystack: &'a str) -> Option<&'a str> {
        self.get(n).map(|m| m.as_str(haystack))
    }

    /// Number of groups (including group 0).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Always false: group 0 exists for any match.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum ClassItem {
    Char(char),
    Range(char, char),
    Digit,
    Word,
    Space,
}

impl ClassItem {
    fn matches(&self, c: char) -> bool {
        match self {
            ClassItem::Char(x) => c == *x,
            ClassItem::Range(a, b) => (*a..=*b).contains(&c),
            ClassItem::Digit => c.is_ascii_digit(),
            ClassItem::Word => c.is_alphanumeric() || c == '_',
            ClassItem::Space => c.is_whitespace(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Inst {
    Char(char),
    Any,
    Class { neg: bool, items: Vec<ClassItem> },
    Split(usize, usize),
    Jmp(usize),
    Save(usize),
    AnchorStart,
    AnchorEnd,
    Match,
}

/// A compiled regular expression.
///
/// ```
/// use quarry_extract::regex::Regex;
///
/// let re = Regex::new(r"(\d+) °F").unwrap();
/// let text = "January averages 26 °F in Madison.";
/// let caps = re.captures(text).unwrap();
/// assert_eq!(caps.text(1, text), Some("26"));
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    prog: Vec<Inst>,
    n_groups: usize,
    pattern: String,
}

// ---------------------------------------------------------------------
// Parser → AST
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Char(char),
    Any,
    Class { neg: bool, items: Vec<ClassItem> },
    Group(usize, Box<Ast>),
    Concat(Vec<Ast>),
    Alt(Box<Ast>, Box<Ast>),
    Repeat { node: Box<Ast>, min: usize, max: Option<usize>, greedy: bool },
    AnchorStart,
    AnchorEnd,
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    next_group: usize,
}

impl<'a> Parser<'a> {
    fn new(pattern: &'a str) -> Self {
        Parser { chars: pattern.chars().peekable(), next_group: 1 }
    }

    fn parse(&mut self) -> Result<Ast, RegexError> {
        let ast = self.alternation()?;
        if self.chars.peek().is_some() {
            return Err(RegexError("unbalanced ')'".into()));
        }
        Ok(ast)
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut node = self.concat()?;
        while self.chars.peek() == Some(&'|') {
            self.chars.next();
            let rhs = self.concat()?;
            node = Ast::Alt(Box::new(node), Box::new(rhs));
        }
        Ok(node)
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts = Vec::new();
        while let Some(&c) = self.chars.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("len checked"),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        let (min, max) = match self.chars.peek() {
            Some('*') => {
                self.chars.next();
                (0, None)
            }
            Some('+') => {
                self.chars.next();
                (1, None)
            }
            Some('?') => {
                self.chars.next();
                (0, Some(1))
            }
            Some('{') => {
                self.chars.next();
                self.bounds()?
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd | Ast::Empty) {
            return Err(RegexError("quantifier on anchor or empty".into()));
        }
        let greedy = if self.chars.peek() == Some(&'?') {
            self.chars.next();
            false
        } else {
            true
        };
        Ok(Ast::Repeat { node: Box::new(atom), min, max, greedy })
    }

    fn bounds(&mut self) -> Result<(usize, Option<usize>), RegexError> {
        let mut min = String::new();
        while matches!(self.chars.peek(), Some(c) if c.is_ascii_digit()) {
            min.push(self.chars.next().expect("peeked"));
        }
        let min: usize = min.parse().map_err(|_| RegexError("bad {m}".into()))?;
        match self.chars.next() {
            Some('}') => Ok((min, Some(min))),
            Some(',') => {
                let mut max = String::new();
                while matches!(self.chars.peek(), Some(c) if c.is_ascii_digit()) {
                    max.push(self.chars.next().expect("peeked"));
                }
                if self.chars.next() != Some('}') {
                    return Err(RegexError("unterminated {m,n}".into()));
                }
                if max.is_empty() {
                    Ok((min, None))
                } else {
                    let max: usize = max.parse().map_err(|_| RegexError("bad {m,n}".into()))?;
                    if max < min {
                        return Err(RegexError("{m,n} with n < m".into()));
                    }
                    Ok((min, Some(max)))
                }
            }
            _ => Err(RegexError("unterminated {m}".into())),
        }
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        let c = self.chars.next().ok_or_else(|| RegexError("unexpected end".into()))?;
        Ok(match c {
            '(' => {
                let idx = self.next_group;
                self.next_group += 1;
                let inner = self.alternation()?;
                if self.chars.next() != Some(')') {
                    return Err(RegexError("unbalanced '('".into()));
                }
                Ast::Group(idx, Box::new(inner))
            }
            '[' => self.class()?,
            '.' => Ast::Any,
            '^' => Ast::AnchorStart,
            '$' => Ast::AnchorEnd,
            '\\' => self.escape()?,
            '*' | '+' | '?' => return Err(RegexError(format!("dangling quantifier '{c}'"))),
            _ => Ast::Char(c),
        })
    }

    fn escape(&mut self) -> Result<Ast, RegexError> {
        let c = self.chars.next().ok_or_else(|| RegexError("trailing backslash".into()))?;
        Ok(match c {
            'd' => Ast::Class { neg: false, items: vec![ClassItem::Digit] },
            'D' => Ast::Class { neg: true, items: vec![ClassItem::Digit] },
            'w' => Ast::Class { neg: false, items: vec![ClassItem::Word] },
            'W' => Ast::Class { neg: true, items: vec![ClassItem::Word] },
            's' => Ast::Class { neg: false, items: vec![ClassItem::Space] },
            'S' => Ast::Class { neg: true, items: vec![ClassItem::Space] },
            'n' => Ast::Char('\n'),
            't' => Ast::Char('\t'),
            'r' => Ast::Char('\r'),
            _ => Ast::Char(c), // escaped metacharacter (\. \( \| ...)
        })
    }

    fn class(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        let neg = if self.chars.peek() == Some(&'^') {
            self.chars.next();
            true
        } else {
            false
        };
        loop {
            let c = self.chars.next().ok_or_else(|| RegexError("unterminated class".into()))?;
            match c {
                ']' => break,
                '\\' => {
                    let e = self
                        .chars
                        .next()
                        .ok_or_else(|| RegexError("trailing backslash in class".into()))?;
                    items.push(match e {
                        'd' => ClassItem::Digit,
                        'w' => ClassItem::Word,
                        's' => ClassItem::Space,
                        'n' => ClassItem::Char('\n'),
                        't' => ClassItem::Char('\t'),
                        other => ClassItem::Char(other),
                    });
                }
                first => {
                    // Possible range `a-z` (a '-' at the end is a literal).
                    if self.chars.peek() == Some(&'-') {
                        let mut clone = self.chars.clone();
                        clone.next(); // consume '-'
                        match clone.peek() {
                            Some(&']') | None => items.push(ClassItem::Char(first)),
                            Some(&hi) => {
                                self.chars.next();
                                self.chars.next();
                                if hi < first {
                                    return Err(RegexError("inverted class range".into()));
                                }
                                items.push(ClassItem::Range(first, hi));
                            }
                        }
                    } else {
                        items.push(ClassItem::Char(first));
                    }
                }
            }
        }
        Ok(Ast::Class { neg, items })
    }
}

// ---------------------------------------------------------------------
// Compiler: AST → bytecode
// ---------------------------------------------------------------------

fn compile(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(c) => prog.push(Inst::Char(*c)),
        Ast::Any => prog.push(Inst::Any),
        Ast::Class { neg, items } => prog.push(Inst::Class { neg: *neg, items: items.clone() }),
        Ast::AnchorStart => prog.push(Inst::AnchorStart),
        Ast::AnchorEnd => prog.push(Inst::AnchorEnd),
        Ast::Group(idx, inner) => {
            prog.push(Inst::Save(idx * 2));
            compile(inner, prog);
            prog.push(Inst::Save(idx * 2 + 1));
        }
        Ast::Concat(parts) => {
            for p in parts {
                compile(p, prog);
            }
        }
        Ast::Alt(a, b) => {
            let split = prog.len();
            prog.push(Inst::Split(0, 0)); // patched below
            compile(a, prog);
            let jmp = prog.len();
            prog.push(Inst::Jmp(0)); // patched below
            let b_start = prog.len();
            compile(b, prog);
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, b_start);
            prog[jmp] = Inst::Jmp(end);
        }
        Ast::Repeat { node, min, max, greedy } => {
            // Mandatory copies.
            for _ in 0..*min {
                compile(node, prog);
            }
            match max {
                Some(max) => {
                    // Optional copies: (max - min) nested `?`.
                    let mut splits = Vec::new();
                    for _ in *min..*max {
                        let split = prog.len();
                        prog.push(Inst::Split(0, 0));
                        splits.push(split);
                        compile(node, prog);
                    }
                    let end = prog.len();
                    for split in splits {
                        prog[split] = if *greedy {
                            Inst::Split(split + 1, end)
                        } else {
                            Inst::Split(end, split + 1)
                        };
                    }
                }
                None => {
                    // Star loop.
                    let loop_start = prog.len();
                    prog.push(Inst::Split(0, 0));
                    compile(node, prog);
                    prog.push(Inst::Jmp(loop_start));
                    let end = prog.len();
                    prog[loop_start] = if *greedy {
                        Inst::Split(loop_start + 1, end)
                    } else {
                        Inst::Split(end, loop_start + 1)
                    };
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Backtracking VM
// ---------------------------------------------------------------------

/// A text decoded once: its chars, and each char's byte offset.
struct Haystack {
    chars: Vec<char>,
    offsets: Vec<usize>,
}

impl Haystack {
    fn new(text: &str) -> Haystack {
        Haystack {
            chars: text.chars().collect(),
            offsets: text.char_indices().map(|(i, _)| i).collect(),
        }
    }

    fn byte_at(&self, sp: usize) -> usize {
        if sp < self.offsets.len() {
            self.offsets[sp]
        } else {
            // End of haystack: one past the last char's start.
            self.offsets
                .last()
                .map_or(0, |&last| last + self.chars.last().map_or(0, |c| c.len_utf8()))
        }
    }
}

fn exec(
    prog: &[Inst],
    hay: &Haystack,
    mut pc: usize,
    mut sp: usize,
    saves: &mut Vec<Option<usize>>,
    budget: &mut usize,
) -> Option<usize> {
    loop {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        match &prog[pc] {
            Inst::Match => return Some(sp),
            Inst::Char(c) => {
                if sp < hay.chars.len() && hay.chars[sp] == *c {
                    pc += 1;
                    sp += 1;
                } else {
                    return None;
                }
            }
            Inst::Any => {
                if sp < hay.chars.len() {
                    pc += 1;
                    sp += 1;
                } else {
                    return None;
                }
            }
            Inst::Class { neg, items } => {
                if sp < hay.chars.len() {
                    let hit = items.iter().any(|i| i.matches(hay.chars[sp]));
                    if hit != *neg {
                        pc += 1;
                        sp += 1;
                        continue;
                    }
                }
                return None;
            }
            Inst::AnchorStart => {
                if sp == 0 {
                    pc += 1;
                } else {
                    return None;
                }
            }
            Inst::AnchorEnd => {
                if sp == hay.chars.len() {
                    pc += 1;
                } else {
                    return None;
                }
            }
            Inst::Jmp(t) => pc = *t,
            Inst::Split(a, b) => {
                let snapshot = saves.clone();
                if let Some(end) = exec(prog, hay, *a, sp, saves, budget) {
                    return Some(end);
                }
                *saves = snapshot;
                pc = *b;
            }
            Inst::Save(slot) => {
                let slot = *slot;
                let old = saves[slot];
                saves[slot] = Some(hay.byte_at(sp));
                if let Some(end) = exec(prog, hay, pc + 1, sp, saves, budget) {
                    return Some(end);
                }
                saves[slot] = old;
                return None;
            }
        }
    }
}

impl Regex {
    /// Steps allowed per match attempt before giving up.
    const STEP_BUDGET: usize = 1_000_000;

    /// Compile a pattern.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let ast = Parser::new(pattern).parse()?;
        let n_groups = count_groups(&ast) + 1;
        let mut prog = Vec::new();
        prog.push(Inst::Save(0));
        compile(&ast, &mut prog);
        prog.push(Inst::Save(1));
        prog.push(Inst::Match);
        Ok(Regex { prog, n_groups, pattern: pattern.to_string() })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Does the pattern match anywhere in `text`?
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Leftmost match, if any.
    pub fn find(&self, text: &str) -> Option<Match> {
        self.captures(text).and_then(|c| c.get(0))
    }

    /// Leftmost match with capture groups.
    pub fn captures(&self, text: &str) -> Option<Captures> {
        self.captures_from(&Haystack::new(text), 0).map(|(caps, _)| caps)
    }

    /// Leftmost match starting at char `start_char` or later, with the char
    /// position the next search starts from: the match's end, or one past
    /// an empty match.
    fn captures_from(&self, hay: &Haystack, start_char: usize) -> Option<(Captures, usize)> {
        for sp in start_char..=hay.chars.len() {
            let mut saves = vec![None; self.n_groups * 2];
            let mut budget = Self::STEP_BUDGET;
            if let Some(end) = exec(&self.prog, hay, 0, sp, &mut saves, &mut budget) {
                let groups = (0..self.n_groups)
                    .map(|g| match (saves[g * 2], saves[g * 2 + 1]) {
                        (Some(s), Some(e)) => Some(Match { start: s, end: e }),
                        _ => None,
                    })
                    .collect();
                return Some((Captures { groups }, end.max(sp + 1)));
            }
        }
        None
    }

    /// All non-overlapping matches, left to right.
    pub fn find_iter(&self, text: &str) -> Vec<Match> {
        self.captures_iter(text).into_iter().filter_map(|c| c.get(0)).collect()
    }

    /// Captures of all non-overlapping matches, left to right. The text is
    /// decoded once and each search goes on from the previous match's end,
    /// so `^` anchors only at the text's start.
    pub fn captures_iter(&self, text: &str) -> Vec<Captures> {
        let hay = Haystack::new(text);
        let mut out = Vec::new();
        let mut next = 0;
        while let Some((caps, resume)) = self.captures_from(&hay, next) {
            out.push(caps);
            next = resume;
        }
        out
    }
}

fn count_groups(ast: &Ast) -> usize {
    match ast {
        Ast::Group(idx, inner) => (*idx).max(count_groups(inner)),
        Ast::Concat(parts) => parts.iter().map(count_groups).max().unwrap_or(0),
        Ast::Alt(a, b) => count_groups(a).max(count_groups(b)),
        Ast::Repeat { node, .. } => count_groups(node),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> Option<String> {
        Regex::new(pat).unwrap().find(text).map(|m| m.as_str(text).to_string())
    }

    #[test]
    fn literals_and_any() {
        assert_eq!(m("abc", "xxabcxx"), Some("abc".into()));
        assert_eq!(m("a.c", "a!c"), Some("a!c".into()));
        assert_eq!(m("abc", "ab"), None);
    }

    #[test]
    fn escapes() {
        assert_eq!(m(r"\d+", "year 2009!"), Some("2009".into()));
        assert_eq!(m(r"\w+", "  hello_9 "), Some("hello_9".into()));
        assert_eq!(m(r"\s\S", "a b"), Some(" b".into()));
        assert_eq!(m(r"\.", "a.b"), Some(".".into()));
        assert_eq!(m(r"\D+", "12ab34"), Some("ab".into()));
    }

    #[test]
    fn classes_and_ranges() {
        assert_eq!(m("[a-c]+", "zzabcaz"), Some("abca".into()));
        assert_eq!(m("[^0-9]+", "12abc34"), Some("abc".into()));
        assert_eq!(m(r"[\d,]+", "pop 1,234,567."), Some("1,234,567".into()));
        assert_eq!(m("[a-]", "-"), Some("-".into()));
    }

    #[test]
    fn quantifiers() {
        assert_eq!(m("ab*c", "ac"), Some("ac".into()));
        assert_eq!(m("ab+c", "ac"), None);
        assert_eq!(m("ab?c", "abc"), Some("abc".into()));
        assert_eq!(m("a{3}", "aaaa"), Some("aaa".into()));
        assert_eq!(m("a{2,3}", "aaaa"), Some("aaa".into()));
        assert_eq!(m("a{2,}", "aaaa"), Some("aaaa".into()));
        assert_eq!(m("a{2,3}", "a"), None);
    }

    #[test]
    fn lazy_quantifiers() {
        assert_eq!(m("<.*?>", "<a><b>"), Some("<a>".into()));
        assert_eq!(m("<.*>", "<a><b>"), Some("<a><b>".into()));
    }

    #[test]
    fn alternation_and_groups() {
        assert_eq!(m("cat|dog", "hotdog"), Some("dog".into()));
        let re = Regex::new(r"(\d+) (°F|F|degrees Fahrenheit)").unwrap();
        let caps = re.captures("it is 70 degrees Fahrenheit today").unwrap();
        assert_eq!(caps.text(1, "it is 70 degrees Fahrenheit today"), Some("70"));
        assert_eq!(caps.text(2, "it is 70 degrees Fahrenheit today"), Some("degrees Fahrenheit"));
    }

    #[test]
    fn anchors() {
        assert_eq!(m("^abc", "abcdef"), Some("abc".into()));
        assert_eq!(m("^bcd", "abcdef"), None);
        assert_eq!(m("def$", "abcdef"), Some("def".into()));
        assert_eq!(m("^abcdef$", "abcdef"), Some("abcdef".into()));
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let text = "a1 b22 c333";
        let all: Vec<String> =
            re.find_iter(text).iter().map(|m| m.as_str(text).to_string()).collect();
        assert_eq!(all, vec!["1", "22", "333"]);
    }

    #[test]
    fn captures_iter_rebased_offsets() {
        let re = Regex::new(r"(\w+) = (\d+)").unwrap();
        let text = "| a = 1\n| bb = 22\n";
        let caps = re.captures_iter(text);
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[1].text(1, text), Some("bb"));
        assert_eq!(caps[1].text(2, text), Some("22"));
        let m = caps[1].get(0).unwrap();
        assert_eq!(m.as_str(text), "bb = 22");
    }

    #[test]
    fn nested_groups() {
        let re = Regex::new(r"((a+)(b+))c").unwrap();
        let caps = re.captures("xaabbbc").unwrap();
        assert_eq!(caps.text(1, "xaabbbc"), Some("aabbb"));
        assert_eq!(caps.text(2, "xaabbbc"), Some("aa"));
        assert_eq!(caps.text(3, "xaabbbc"), Some("bbb"));
    }

    #[test]
    fn unicode_haystack_offsets_are_bytes() {
        let text = "temp — 70 °F";
        let re = Regex::new(r"\d+").unwrap();
        let m = re.find(text).unwrap();
        assert_eq!(m.as_str(text), "70");
        assert_eq!(&text[m.start..m.end], "70");
    }

    #[test]
    fn group_in_alternation_unset_when_untaken() {
        let re = Regex::new(r"(a)|(b)").unwrap();
        let caps = re.captures("b").unwrap();
        assert_eq!(caps.get(1), None);
        assert!(caps.get(2).is_some());
    }

    /// `captures_iter` as it was: re-slice the text after each match,
    /// search the rest from its start, and rebase the offsets.
    fn restart_loop(re: &Regex, text: &str) -> Vec<Captures> {
        let mut out = Vec::new();
        let mut byte_pos = 0usize;
        while byte_pos <= text.len() {
            let rest = &text[byte_pos..];
            let Some(caps) = re.captures(rest) else { break };
            let m = caps.get(0).unwrap();
            let rebase = |g: &Option<Match>| {
                g.map(|m| Match { start: m.start + byte_pos, end: m.end + byte_pos })
            };
            out.push(Captures { groups: caps.groups.iter().map(rebase).collect() });
            let next_char = rest.get(m.end..).and_then(|t| t.chars().next());
            byte_pos +=
                if m.end > m.start { m.end } else { m.end + next_char.map_or(1, char::len_utf8) };
        }
        out
    }

    fn spans(caps: &[Captures], group: usize) -> Vec<(usize, usize)> {
        caps.iter().filter_map(|c| c.get(group)).map(|m| (m.start, m.end)).collect()
    }

    #[test]
    fn a_start_anchor_matches_only_at_the_text_start() {
        let re = Regex::new("^a").unwrap();
        assert_eq!(spans(&re.captures_iter("aaa"), 0), [(0, 1)]);
        // The old restart loop re-anchored at every match.
        assert_eq!(restart_loop(&re, "aaa").len(), 3);
        assert!(Regex::new("^b").unwrap().captures_iter("ab").is_empty());
    }

    #[test]
    fn multi_byte_offsets_continue_on_the_same_haystack() {
        let re = Regex::new("é(x)").unwrap();
        let text = "aéxéx";
        let caps = re.captures_iter(text);
        assert_eq!(spans(&caps, 0), [(1, 4), (4, 7)]);
        assert_eq!(spans(&caps, 1), [(3, 4), (6, 7)]);
        let starts: Vec<_> =
            caps.iter().map(|c| (c.get(0).unwrap().start, c.get(1).unwrap().start)).collect();
        assert_eq!(starts, [(1, 3), (4, 6)]);
        // Empty matches step one char, not one byte, over multi-byte text.
        assert_eq!(
            spans(&Regex::new("x*").unwrap().captures_iter("éx"), 0),
            [(0, 0), (2, 3), (3, 3)]
        );
    }

    /// Every shipped pattern over every document of the E1 and E9 corpora
    /// finds what the old restart loop found (no shipped pattern uses `^`).
    #[test]
    fn shipped_patterns_match_like_the_restart_loop() {
        use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig};
        let e1 = CorpusConfig {
            seed: 1,
            n_cities: 200,
            n_people: 50,
            n_companies: 20,
            n_publications: 20,
            duplicate_rate: 0.2,
            noise: NoiseConfig::none(),
        };
        let e9 = CorpusConfig { seed: 9, n_cities: 150, ..CorpusConfig::default() };
        let rules = crate::rules::standard_rules();
        let patterns: Vec<&Regex> =
            rules.iter().map(|r| &r.pattern).chain([crate::infobox::line_re()]).collect();
        for cfg in [e1, e9] {
            for doc in &Corpus::generate(&cfg).docs {
                for re in &patterns {
                    let (got, want) = (re.captures_iter(&doc.text), restart_loop(re, &doc.text));
                    assert!(got == want, "{} on {}", re.pattern(), doc.id);
                }
            }
        }
    }

    #[test]
    fn empty_match_iteration_terminates() {
        let re = Regex::new("x*").unwrap();
        let all = re.find_iter("aaa");
        assert!(!all.is_empty()); // empty matches at each position, but it terminates
    }

    #[test]
    fn parse_errors() {
        for bad in ["(abc", "abc)", "[abc", "a{2,1}", "*a", "a{", r"\"] {
            assert!(Regex::new(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn repetition_of_group() {
        let re = Regex::new(r"(ab)+").unwrap();
        let m = re.find("xababab!").unwrap();
        assert_eq!(m.as_str("xababab!"), "ababab");
    }

    #[test]
    fn pathological_pattern_fails_closed() {
        // (a+)+b on a long 'a' string must not hang; budget turns it into a miss.
        let re = Regex::new("(a+)+b").unwrap();
        let text = "a".repeat(40);
        assert!(!re.is_match(&text));
    }
}
