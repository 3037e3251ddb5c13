//! Offline shim for `serde_derive`: hand-rolled `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` with no syn/quote dependency.
//!
//! Supports the shapes this workspace uses: non-generic structs (named,
//! tuple, unit) and enums (unit / newtype / tuple / struct variants),
//! generating serde's externally-tagged JSON representation against the
//! `serde` shim's streaming traits: `serialize` appends literal key text
//! and each field's own encoding to the output, `deserialize` matches keys
//! and tags as borrowed strings from a `json::Reader`.
//!
//! The one attribute understood is `#[serde(default)]` on a named field:
//! an absent key decodes as `Default::default()`. Any other `#[serde(..)]`
//! is a compile error rather than a silently different format.

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

struct Field {
    name: String,
    /// `#[serde(default)]`: absent on decode means `Default::default()`.
    default: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
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

    fn at_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c)
    }

    /// Skip the attributes in front of an item, variant or field, and
    /// answer whether one of them was `#[serde(default)]`.
    fn attributes(&mut self) -> bool {
        let mut default = false;
        while self.at_punct('#') {
            self.pos += 1;
            if self.at_punct('!') {
                self.pos += 1;
            }
            let Some(TokenTree::Group(g)) = self.bump() else {
                panic!("malformed attribute");
            };
            let mut inside = g.stream().into_iter();
            if matches!(inside.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
                match (inside.next(), inside.next()) {
                    (Some(TokenTree::Group(args)), None)
                        if args.stream().to_string() == "default" =>
                    {
                        default = true
                    }
                    _ => panic!(
                        "unsupported attribute #[{}]: the serde shim knows only #[serde(default)]",
                        g.stream()
                    ),
                }
            }
        }
        default
    }

    /// Skip attributes that may not carry `#[serde(default)]`.
    fn plain_attributes(&mut self, what: &str) {
        if self.attributes() {
            panic!("#[serde(default)] applies to named fields, not to {what}");
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
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Step over the comma that separates fields or variants, if any.
    fn separator(&mut self) {
        if self.at_punct(',') {
            self.pos += 1;
        }
    }
}

fn parse_named_fields(group: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(group);
    let mut fields = Vec::new();
    while c.peek().is_some() {
        let default = c.attributes();
        c.skip_visibility();
        let name = c.expect_ident();
        match c.bump() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected ':' after field name, found {other:?}"),
        }
        c.skip_type();
        c.separator();
        fields.push(Field { name, default });
    }
    fields
}

fn count_tuple_fields(group: TokenStream) -> usize {
    let mut c = Cursor::new(group);
    let mut count = 0usize;
    while c.peek().is_some() {
        c.plain_attributes("tuple fields");
        c.skip_visibility();
        c.skip_type();
        c.separator();
        count += 1;
    }
    count
}

fn parse_variants(group: TokenStream) -> Vec<Variant> {
    let mut c = Cursor::new(group);
    let mut variants = Vec::new();
    while c.peek().is_some() {
        c.plain_attributes("variants");
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
        if c.at_punct('=') {
            while c.peek().is_some() && !c.at_punct(',') {
                c.pos += 1;
            }
        }
        c.separator();
        variants.push(Variant { name, shape });
    }
    variants
}

impl Item {
    fn parse(input: TokenStream) -> Item {
        let mut c = Cursor::new(input);
        c.plain_attributes("items");
        c.skip_visibility();
        let kind = c.expect_ident();
        let name = c.expect_ident();
        if c.at_punct('<') {
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
            Body::Struct(Shape::Unit) => put("null"),
            Body::Struct(Shape::Tuple(1)) => "::serde::Serialize::serialize(&self.0, out);".into(),
            Body::Struct(Shape::Tuple(n)) => {
                write_tuple(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
            }
            Body::Struct(Shape::Named(fields)) => {
                write_object(fields.iter().map(|f| (f.name.as_str(), format!("&self.{}", f.name))))
            }
            Body::Enum(variants) => {
                let arms: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        let vn = &v.name;
                        let open = put(&format!("{{\"{vn}\":"));
                        match &v.shape {
                            Shape::Unit => format!("{name}::{vn} => {{ {} }}", put(&format!("\"{vn}\""))),
                            Shape::Tuple(n) => {
                                let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                                let content = match n {
                                    1 => "::serde::Serialize::serialize(x0, out);".to_string(),
                                    _ => write_tuple(&binds),
                                };
                                format!(
                                    "{name}::{vn}({}) => {{ {open} {content} out.push(b'}}'); }}",
                                    binds.join(", ")
                                )
                            }
                            Shape::Named(fields) => {
                                let binds: Vec<String> =
                                    fields.iter().map(|f| format!("{0}: field_{0}", f.name)).collect();
                                let content = write_object(
                                    fields.iter().map(|f| (f.name.as_str(), format!("field_{}", f.name))),
                                );
                                format!(
                                    "{name}::{vn} {{ {} }} => {{ {open} {content} out.push(b'}}'); }}",
                                    binds.join(", ")
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
                 fn serialize(&self, out: &mut ::std::vec::Vec<u8>) {{ {body} }}\n\
             }}"
        )
    }

    fn deserialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(shape) => {
                format!("::std::result::Result::Ok({})", read_shape(name, shape))
            }
            Body::Enum(variants) => {
                let unit_arms: Vec<String> = variants
                    .iter()
                    .filter(|v| matches!(v.shape, Shape::Unit))
                    .map(|v| {
                        format!(
                            "\"{vn}\" => ::std::option::Option::Some({name}::{vn}),",
                            vn = v.name
                        )
                    })
                    .collect();
                let data_arms: Vec<String> = variants
                    .iter()
                    .filter(|v| !matches!(v.shape, Shape::Unit))
                    .map(|v| {
                        let owner = format!("{name}::{}", v.name);
                        format!("\"{}\" => {},", v.name, read_shape(&owner, &v.shape))
                    })
                    .collect();
                let data = if data_arms.is_empty() {
                    "|_, _| ::std::result::Result::Ok(::std::option::Option::None)".to_string()
                } else {
                    format!(
                        "|r, tag| ::std::result::Result::Ok(::std::option::Option::Some(match tag {{\n\
                           {}\n\
                           _ => return ::std::result::Result::Ok(::std::option::Option::None),\n\
                         }}))",
                        data_arms.join("\n")
                    )
                };
                format!(
                    "::serde::de::variant(r, \"{name}\",\n\
                       |tag| match tag {{ {} _ => ::std::option::Option::None }},\n\
                       {data},\n\
                     )",
                    unit_arms.join(" "),
                )
            }
        };
        format!(
            "#[automatically_derived]\n\
             impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(r: &mut ::serde::json::Reader<'_>) -> ::std::result::Result<Self, ::std::string::String> {{\n\
                     {body}\n\
                 }}\n\
             }}"
        )
    }
}

/// `out.extend_from_slice(<text>)`: literal JSON, escaped for a Rust string.
fn put(text: &str) -> String {
    format!("out.extend_from_slice({text:?}.as_bytes());")
}

/// `[a,b,...]` from the expressions `items`.
fn write_tuple(items: &[String]) -> String {
    let parts: Vec<String> =
        items.iter().map(|x| format!("::serde::Serialize::serialize({x}, out);")).collect();
    format!("out.push(b'['); {} out.push(b']');", parts.join(" out.push(b',');"))
}

/// `{"f":..,...}` from `(field name, expression)` pairs; the key text and
/// its punctuation go out as one literal per field.
fn write_object<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut code = String::new();
    let mut sep = '{';
    for (f, expr) in fields {
        code += &put(&format!("{sep}\"{f}\":"));
        code += &format!(" ::serde::Serialize::serialize({expr}, out); ");
        sep = ',';
    }
    if sep == '{' {
        code += &put("{");
    }
    code + "out.push(b'}');"
}

/// An expression reading the tuple or named content of `owner` (a struct,
/// or `Enum::Variant`) from `r`, built as `owner`; it returns early with
/// the decode error. A newtype is its one field's encoding.
fn read_shape(owner: &str, shape: &Shape) -> String {
    match shape {
        // A unit struct is written as `null` and was read from anything.
        Shape::Unit => format!("{{ r.skip()?; {owner} }}"),
        Shape::Tuple(1) => format!("{owner}(::serde::Deserialize::deserialize(r)?)"),
        Shape::Tuple(n) => {
            let slots: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
            let lets: String = slots
                .iter()
                .map(|x| format!("let mut {x} = ::std::option::Option::None; "))
                .collect();
            let arms: String = slots
                .iter()
                .enumerate()
                .map(|(i, x)| format!("{i} => ::serde::de::field(&mut {x}, r), "))
                .collect();
            let somes: Vec<String> =
                slots.iter().map(|x| format!("::std::option::Option::Some({x})")).collect();
            let arity = format!("::std::string::String::from(\"wrong arity for {owner}\")");
            format!(
                "{{\n\
                   {lets} let mut at = 0usize;\n\
                   let array = r.array(|r| {{ at += 1; match at - 1 {{ {arms} _ => ::std::result::Result::Err({arity}) }} }})?;\n\
                   if !array {{ return ::std::result::Result::Err(::std::string::String::from(\"expected array for {owner}\")); }}\n\
                   match ({list}) {{\n\
                     ({somes}) => {owner}({list}),\n\
                     _ => return ::std::result::Result::Err({arity}),\n\
                   }}\n\
                 }}",
                list = slots.join(", "),
                somes = somes.join(", "),
            )
        }
        Shape::Named(fields) => {
            let Some(first) = fields.first() else {
                return format!("{{ r.skip()?; {owner} {{}} }}");
            };
            let slot = |f: &Field| format!("field_{}", f.name);
            let lets: String = fields
                .iter()
                .map(|f| format!("let mut {} = ::std::option::Option::None; ", slot(f)))
                .collect();
            let arms: String = fields
                .iter()
                .map(|f| format!("\"{}\" => ::serde::de::field(&mut {}, r), ", f.name, slot(f)))
                .collect();
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    let take = if f.default {
                        ".unwrap_or_default()".to_string()
                    } else {
                        format!(
                            ".ok_or_else(|| ::serde::de::missing(\"{}\", \"{owner}\"))?",
                            f.name
                        )
                    };
                    format!("{}: {}{take}", f.name, slot(f))
                })
                .collect();
            format!(
                "{{\n\
                   {lets}\n\
                   if !r.object(|r, key| match &*key {{ {arms} _ => r.skip() }})? {{\n\
                     return ::std::result::Result::Err(::serde::de::missing(\"{first}\", \"{owner}\"));\n\
                   }}\n\
                   {owner} {{ {inits} }}\n\
                 }}",
                first = first.name,
                inits = inits.join(", "),
            )
        }
    }
}
