//! Offline shim for `serde_derive`: hand-rolled `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` with no syn/quote dependency.
//!
//! Supports the shapes this workspace uses: non-generic structs (named,
//! tuple, unit) and enums (unit / newtype / tuple / struct variants),
//! generating serde's externally-tagged JSON representation against the
//! `serde` shim's `to_json`/`from_json` traits.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    item.serialize_impl().parse().expect("generated Serialize impl parses")
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    item.deserialize_impl().parse().expect("generated Deserialize impl parses")
}

// ---------- item model ----------

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

// ---------- token-level parsing ----------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Cursor {
        Cursor { tokens: ts.into_iter().collect(), pos: 0 }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn skip_attributes(&mut self) {
        while matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            self.pos += 1; // '#'
            if matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '!') {
                self.pos += 1;
            }
            match self.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    self.pos += 1;
                }
                other => panic!("malformed attribute near {other:?}"),
            }
        }
    }

    fn skip_visibility(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
            self.pos += 1;
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.pos += 1; // pub(crate) / pub(super)
            }
        }
    }

    fn expect_ident(&mut self) -> String {
        match self.bump() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected identifier, found {other:?}"),
        }
    }

    /// Skip one type, honoring nested `<...>` (commas inside generics are
    /// not field separators). Groups are atomic token trees already.
    fn skip_type(&mut self) {
        let mut angle_depth = 0i32;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    angle_depth += 1;
                    self.pos += 1;
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle_depth -= 1;
                    self.pos += 1;
                }
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => self.pos += 1,
            }
        }
    }
}

fn parse_named_fields(group: TokenStream) -> Vec<String> {
    let mut c = Cursor::new(group);
    let mut names = Vec::new();
    while c.peek().is_some() {
        c.skip_attributes();
        c.skip_visibility();
        names.push(c.expect_ident());
        match c.bump() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected ':' after field name, found {other:?}"),
        }
        c.skip_type();
        // Separator comma (if any).
        if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            c.pos += 1;
        }
    }
    names
}

fn count_tuple_fields(group: TokenStream) -> usize {
    let mut c = Cursor::new(group);
    let mut count = 0usize;
    while c.peek().is_some() {
        c.skip_attributes();
        c.skip_visibility();
        c.skip_type();
        count += 1;
        if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            c.pos += 1;
        }
    }
    count
}

fn parse_variants(group: TokenStream) -> Vec<Variant> {
    let mut c = Cursor::new(group);
    let mut variants = Vec::new();
    while c.peek().is_some() {
        c.skip_attributes();
        let name = c.expect_ident();
        let shape = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let fields = count_tuple_fields(g.stream());
                c.pos += 1;
                Shape::Tuple(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                c.pos += 1;
                Shape::Named(fields)
            }
            _ => Shape::Unit,
        };
        // Optional discriminant `= expr` (plain enums), then comma.
        if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            c.pos += 1;
            while let Some(t) = c.peek() {
                if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                c.pos += 1;
            }
        }
        if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            c.pos += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

impl Item {
    fn parse(input: TokenStream) -> Item {
        let mut c = Cursor::new(input);
        c.skip_attributes();
        c.skip_visibility();
        let kind = c.expect_ident();
        let name = c.expect_ident();
        if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            panic!("serde shim derive does not support generic type {name}");
        }
        let body = match kind.as_str() {
            "struct" => match c.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Struct(Shape::Named(parse_named_fields(g.stream())))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Body::Struct(Shape::Tuple(count_tuple_fields(g.stream())))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Struct(Shape::Unit),
                other => panic!("unexpected struct body {other:?}"),
            },
            "enum" => match c.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Enum(parse_variants(g.stream()))
                }
                other => panic!("unexpected enum body {other:?}"),
            },
            other => panic!("cannot derive serde traits for `{other}` items"),
        };
        Item { name, body }
    }

    // ---------- codegen ----------

    fn serialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(Shape::Unit) => "::serde::json::Json::Null".to_string(),
            Body::Struct(Shape::Tuple(1)) => "::serde::Serialize::to_json(&self.0)".to_string(),
            Body::Struct(Shape::Tuple(n)) => {
                let items: Vec<String> =
                    (0..*n).map(|i| format!("::serde::Serialize::to_json(&self.{i})")).collect();
                format!("::serde::json::Json::Arr(vec![{}])", items.join(", "))
            }
            Body::Struct(Shape::Named(fields)) => {
                obj_literal(fields.iter().map(|f| (f.clone(), format!("&self.{f}"))))
            }
            Body::Enum(variants) => {
                let arms: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        let vn = &v.name;
                        match &v.shape {
                            Shape::Unit => format!(
                                "{name}::{vn} => ::serde::json::Json::Str(::std::string::String::from(\"{vn}\")),"
                            ),
                            Shape::Tuple(1) => format!(
                                "{name}::{vn}(x0) => ::serde::json::Json::Obj(vec![(::std::string::String::from(\"{vn}\"), ::serde::Serialize::to_json(x0))]),"
                            ),
                            Shape::Tuple(n) => {
                                let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                                let items: Vec<String> = (0..*n)
                                    .map(|i| format!("::serde::Serialize::to_json(x{i})"))
                                    .collect();
                                format!(
                                    "{name}::{vn}({b}) => ::serde::json::Json::Obj(vec![(::std::string::String::from(\"{vn}\"), ::serde::json::Json::Arr(vec![{i}]))]),",
                                    b = binds.join(", "),
                                    i = items.join(", ")
                                )
                            }
                            Shape::Named(fields) => {
                                let binds = fields.join(", ");
                                let inner = obj_literal(
                                    fields.iter().map(|f| (f.clone(), f.clone())),
                                );
                                format!(
                                    "{name}::{vn} {{ {binds} }} => ::serde::json::Json::Obj(vec![(::std::string::String::from(\"{vn}\"), {inner})]),"
                                )
                            }
                        }
                    })
                    .collect();
                format!("match self {{ {} }}", arms.join("\n"))
            }
        };
        format!(
            "#[automatically_derived]\n\
             impl ::serde::Serialize for {name} {{\n\
                 fn to_json(&self) -> ::serde::json::Json {{ {body} }}\n\
             }}"
        )
    }

    fn deserialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(Shape::Unit) => format!("::std::result::Result::Ok({name})"),
            Body::Struct(Shape::Tuple(1)) => {
                format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_json(v)?))")
            }
            Body::Struct(Shape::Tuple(n)) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_json(&arr[{i}])?"))
                    .collect();
                format!(
                    "let arr = v.as_arr().ok_or_else(|| ::std::string::String::from(\"expected array for {name}\"))?;\n\
                     if arr.len() != {n} {{ return ::std::result::Result::Err(::std::string::String::from(\"wrong arity for {name}\")); }}\n\
                     ::std::result::Result::Ok({name}({items}))",
                    items = items.join(", ")
                )
            }
            Body::Struct(Shape::Named(fields)) => format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                named_field_builders(name, "v", fields).join(", ")
            ),
            Body::Enum(variants) => {
                let unit_arms: Vec<String> = variants
                    .iter()
                    .filter(|v| matches!(v.shape, Shape::Unit))
                    .map(|v| {
                        format!("\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),", vn = v.name)
                    })
                    .collect();
                let data_arms: Vec<String> = variants
                    .iter()
                    .filter_map(|v| {
                        let vn = &v.name;
                        match &v.shape {
                            Shape::Unit => None,
                            Shape::Tuple(1) => Some(format!(
                                "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_json(inner)?)),"
                            )),
                            Shape::Tuple(n) => {
                                let items: Vec<String> = (0..*n)
                                    .map(|i| {
                                        format!("::serde::Deserialize::from_json(&arr[{i}])?")
                                    })
                                    .collect();
                                Some(format!(
                                    "\"{vn}\" => {{\n\
                                       let arr = inner.as_arr().ok_or_else(|| ::std::string::String::from(\"expected array for {name}::{vn}\"))?;\n\
                                       if arr.len() != {n} {{ return ::std::result::Result::Err(::std::string::String::from(\"wrong arity for {name}::{vn}\")); }}\n\
                                       ::std::result::Result::Ok({name}::{vn}({items}))\n\
                                     }}",
                                    items = items.join(", ")
                                ))
                            }
                            Shape::Named(fields) => Some(format!(
                                "\"{vn}\" => ::std::result::Result::Ok({name}::{vn} {{ {} }}),",
                                named_field_builders(&format!("{name}::{vn}"), "inner", fields)
                                    .join(", ")
                            )),
                        }
                    })
                    .collect();
                format!(
                    "match v {{\n\
                       ::serde::json::Json::Str(tag) => match tag.as_str() {{\n\
                         {unit}\n\
                         other => ::std::result::Result::Err(format!(\"unknown variant {{:?}} for {name}\", ::serde::clip(other))),\n\
                       }},\n\
                       ::serde::json::Json::Obj(entries) if entries.len() == 1 => {{\n\
                         let (tag, inner) = &entries[0];\n\
                         match tag.as_str() {{\n\
                           {data}\n\
                           other => ::std::result::Result::Err(format!(\"unknown variant {{:?}} for {name}\", ::serde::clip(other))),\n\
                         }}\n\
                       }}\n\
                       other => ::std::result::Result::Err(format!(\"expected variant encoding for {name}, got {{}}\", other.kind())),\n\
                     }}",
                    unit = unit_arms.join("\n"),
                    data = data_arms.join("\n"),
                )
            }
        };
        format!(
            "#[automatically_derived]\n\
             impl ::serde::Deserialize for {name} {{\n\
                 fn from_json(v: &::serde::json::Json) -> ::std::result::Result<Self, ::std::string::String> {{\n\
                     {body}\n\
                 }}\n\
             }}"
        )
    }
}

/// `Json::Obj(vec![("f", to_json(expr)), ...])`
fn obj_literal(fields: impl Iterator<Item = (String, String)>) -> String {
    let entries: Vec<String> = fields
        .map(|(name, expr)| {
            format!(
                "(::std::string::String::from(\"{name}\"), ::serde::Serialize::to_json({expr}))"
            )
        })
        .collect();
    format!("::serde::json::Json::Obj(vec![{}])", entries.join(", "))
}

/// `f: match src.get("f") { Some(x) => from_json(x)?, None => Err }` per field.
fn named_field_builders(owner: &str, src: &str, fields: &[String]) -> Vec<String> {
    fields
        .iter()
        .map(|f| {
            format!(
                "{f}: match {src}.get(\"{f}\") {{\n\
                   ::std::option::Option::Some(x) => ::serde::Deserialize::from_json(x)?,\n\
                   ::std::option::Option::None => return ::std::result::Result::Err(::std::string::String::from(\"missing field {f} for {owner}\")),\n\
                 }}"
            )
        })
        .collect()
}
