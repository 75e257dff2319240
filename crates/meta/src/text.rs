//! Textual model format (HUTN-like): the concrete syntax users and tools
//! exchange models in.
//!
//! A model is written as a flat list of objects with local ids; reference
//! slots point at local ids. Example:
//!
//! ```text
//! model sessions conformsTo cml {
//!   // objects are Class localId { slots }
//!   Session s1 {
//!     name = "standup"
//!     kind = Kind::Video
//!     parties -> [p1, p2]
//!   }
//!   Party p1 { name = "ana"  bw = 250 }
//!   Party p2 { name = "bob"  bw = 100 }
//! }
//! ```
//!
//! [`write()`] and [`parse()`] round-trip: `parse(&write(m))` is equivalent to
//! `m` (object ids are renumbered in arena order).

use crate::error::MetaError;
use crate::model::{Model, ObjectId};
use crate::{Result, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------- writing

/// Serializes a model to the textual format.
pub fn write(model: &Model) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model {} conformsTo {} {{",
        ident_or_str("m"),
        ident_or_str(model.metamodel_name())
    );
    for (id, obj) in model.iter() {
        let _ = writeln!(out, "  {} o{} {{", obj.class, id.index());
        for (name, vals) in &obj.attrs {
            if vals.is_empty() {
                continue;
            }
            if vals.len() == 1 {
                let _ = writeln!(out, "    {name} = {}", vals[0]);
            } else {
                let items: Vec<String> = vals.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "    {name} = [{}]", items.join(", "));
            }
        }
        for (name, targets) in &obj.refs {
            if targets.is_empty() {
                continue;
            }
            if targets.len() == 1 {
                let _ = writeln!(out, "    {name} -> o{}", targets[0].index());
            } else {
                let items: Vec<String> =
                    targets.iter().map(|t| format!("o{}", t.index())).collect();
                let _ = writeln!(out, "    {name} -> [{}]", items.join(", "));
            }
        }
        let _ = writeln!(out, "  }}");
    }
    out.push_str("}\n");
    out
}

fn ident_or_str(s: &str) -> String {
    let is_ident = !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    if is_ident {
        s.to_owned()
    } else {
        format!("{:?}", s)
    }
}

// ---------------------------------------------------------------- lexing

#[derive(Debug, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Int(i64),
    Float(f64),
    /// A string literal; owned only when it holds an escape.
    Str(Cow<'s, str>),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Eq,
    Arrow,
    ColonColon,
    Comma,
    Minus,
    Eof,
}

/// A token and the 1-based line and column (in chars) where it starts.
type Spanned<'s> = (Tok<'s>, u32, u32);

/// A cursor over the source text that keeps the line and column.
struct Lexer<'s> {
    src: &'s str,
    /// Byte offset of the next char.
    i: usize,
    line: u32,
    col: u32,
}

impl<'s> Lexer<'s> {
    fn peek(&self) -> Option<char> {
        self.src[self.i..].chars().next()
    }

    /// The byte `ahead` bytes past the next char's start.
    fn byte(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.i += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes chars while `f` holds and returns them.
    fn bump_while(&mut self, f: impl Fn(char) -> bool) -> &'s str {
        let start = self.i;
        while self.peek().is_some_and(&f) {
            self.bump();
        }
        &self.src[start..self.i]
    }

    /// Consumes `n` ASCII chars of punctuation and returns `tok`.
    fn punct(&mut self, n: u32, tok: Tok<'s>) -> Tok<'s> {
        self.i += n as usize;
        self.col += n;
        tok
    }

    /// An unsigned int or float literal (the sign is the parser's).
    fn number(&mut self) -> std::result::Result<Tok<'s>, String> {
        let start = self.i;
        self.bump_while(|c| c.is_ascii_digit());
        let is_float =
            self.byte(0) == Some(b'.') && self.byte(1).is_some_and(|b| b.is_ascii_digit());
        if is_float {
            self.bump();
            self.bump_while(|c| c.is_ascii_digit());
        }
        let text = &self.src[start..self.i];
        if is_float {
            text.parse()
                .map(Tok::Float)
                .map_err(|e| format!("bad float: {e}"))
        } else {
            text.parse()
                .map(Tok::Int)
                .map_err(|e| format!("bad int: {e}"))
        }
    }

    /// A string literal whose opening quote is next and sits at
    /// `line:col`. It borrows from the source unless it holds an escape.
    fn string(&mut self, line: u32, col: u32) -> Result<Cow<'s, str>> {
        self.bump();
        // Start of the escape-free run being scanned.
        let mut run = self.i;
        let mut unescaped: Option<String> = None;
        loop {
            match self.peek() {
                None => {
                    return Err(MetaError::Syntax {
                        line,
                        col,
                        message: "unterminated string".into(),
                    })
                }
                Some('"') => {
                    let tail = &self.src[run..self.i];
                    self.bump();
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(s) => Cow::Owned(s + tail),
                    });
                }
                Some('\\') => {
                    let (bl, bc) = (self.line, self.col);
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(&self.src[run..self.i]);
                    self.bump();
                    s.push(match self.bump() {
                        Some('"') => '"',
                        Some('\\') => '\\',
                        Some('n') => '\n',
                        Some('t') => '\t',
                        other => {
                            return Err(MetaError::Syntax {
                                line: bl,
                                col: bc,
                                message: format!("bad escape `\\{}`", other.unwrap_or(' ')),
                            })
                        }
                    });
                    run = self.i;
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }
}

/// Splits `src` into tokens, the last one `Eof`.
fn lex(src: &str) -> Result<Vec<Spanned<'_>>> {
    let mut lx = Lexer {
        src,
        i: 0,
        line: 1,
        col: 1,
    };
    // Model text runs about four bytes per token.
    let mut toks = Vec::with_capacity(src.len() / 4);
    while let Some(c) = lx.peek() {
        let (line, col) = (lx.line, lx.col);
        let err = |message| MetaError::Syntax { line, col, message };
        let tok = match c {
            c if c.is_whitespace() => {
                lx.bump();
                continue;
            }
            '/' if lx.byte(1) == Some(b'/') => {
                // Up to the newline, which resets the column; a comment
                // that ends the input leaves the column where it began.
                lx.i = src[lx.i..].find('\n').map_or(src.len(), |n| lx.i + n);
                continue;
            }
            '{' => lx.punct(1, Tok::LBrace),
            '}' => lx.punct(1, Tok::RBrace),
            '[' => lx.punct(1, Tok::LBracket),
            ']' => lx.punct(1, Tok::RBracket),
            '=' => lx.punct(1, Tok::Eq),
            ',' => lx.punct(1, Tok::Comma),
            '-' if lx.byte(1) == Some(b'>') => lx.punct(2, Tok::Arrow),
            '-' => lx.punct(1, Tok::Minus),
            ':' if lx.byte(1) == Some(b':') => lx.punct(2, Tok::ColonColon),
            ':' => return Err(err("expected `::`".into())),
            '"' => Tok::Str(lx.string(line, col)?),
            c if c.is_ascii_digit() => lx.number().map_err(err)?,
            c if c.is_alphabetic() || c == '_' => {
                Tok::Ident(lx.bump_while(|c| c.is_alphanumeric() || c == '_'))
            }
            other => return Err(err(format!("unexpected character `{other}`"))),
        };
        toks.push((tok, line, col));
    }
    toks.push((Tok::Eof, lx.line, lx.col));
    Ok(toks)
}

// ---------------------------------------------------------------- parsing

/// Parses a model from its textual form.
pub fn parse(src: &str) -> Result<Model> {
    let mut toks = lex(src)?.into_iter();
    let cur = toks.next().expect("the token stream ends with `Eof`");
    P { toks, cur }.model()
}

struct P<'s> {
    toks: std::vec::IntoIter<Spanned<'s>>,
    /// The current token; `Eof` stays current once reached.
    cur: Spanned<'s>,
}

impl<'s> P<'s> {
    /// Moves past the current token.
    fn bump(&mut self) {
        if let Some(next) = self.toks.next() {
            self.cur = next;
        }
    }

    fn err(&self, message: impl Into<String>) -> MetaError {
        let (_, line, col) = self.cur;
        MetaError::Syntax {
            line,
            col,
            message: message.into(),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.cur.0 == *t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    /// An identifier or a string, moved out of the token stream.
    fn ident(&mut self, what: &str) -> Result<Cow<'s, str>> {
        let s = match &mut self.cur.0 {
            Tok::Ident(s) => Cow::Borrowed(*s),
            Tok::Str(s) => std::mem::take(s),
            _ => return Err(self.err(format!("expected {what}"))),
        };
        self.bump();
        Ok(s)
    }

    fn kw(&mut self, kw: &str) -> Result<()> {
        match self.cur.0 {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err(format!("expected keyword `{kw}`"))),
        }
    }

    fn model(&mut self) -> Result<Model> {
        self.kw("model")?;
        let _name = self.ident("model name")?;
        self.kw("conformsTo")?;
        let mm = self.ident("metamodel name")?;
        self.expect(&Tok::LBrace, "`{`")?;

        // A local reference: target local id plus the source line/column
        // for error reporting.
        type LocalRef<'s> = (Cow<'s, str>, u32, u32);
        let mut model = Model::new(mm);
        let mut local: BTreeMap<Cow<'s, str>, ObjectId> = BTreeMap::new();
        // (object, slot, local ids) resolved after all objects are created.
        let mut pending_refs: Vec<(ObjectId, Cow<'s, str>, Vec<LocalRef<'s>>)> = Vec::new();

        while !self.eat(&Tok::RBrace) {
            if self.cur.0 == Tok::Eof {
                return Err(self.err("unexpected end of input (unclosed model block)"));
            }
            let class = self.ident("class name")?;
            let lid = self.ident("object local id")?;
            if local.contains_key(&lid) {
                return Err(self.err(format!("duplicate object id `{lid}`")));
            }
            let id = model.create(class);
            local.insert(lid, id);
            self.expect(&Tok::LBrace, "`{` opening object body")?;
            while !self.eat(&Tok::RBrace) {
                if self.cur.0 == Tok::Eof {
                    return Err(self.err("unexpected end of input (unclosed object body)"));
                }
                let slot = self.ident("slot name")?;
                if self.eat(&Tok::Eq) {
                    let values = self.values()?;
                    model.set_attr_many(id, slot, values);
                } else if self.eat(&Tok::Arrow) {
                    let mut targets = Vec::new();
                    if self.eat(&Tok::LBracket) {
                        if !self.eat(&Tok::RBracket) {
                            loop {
                                targets.push(self.local_ref()?);
                                if self.eat(&Tok::RBracket) {
                                    break;
                                }
                                self.expect(&Tok::Comma, "`,` or `]`")?;
                            }
                        }
                    } else {
                        targets.push(self.local_ref()?);
                    }
                    pending_refs.push((id, slot, targets));
                } else {
                    return Err(self.err("expected `=` (attribute) or `->` (reference)"));
                }
            }
        }
        self.expect(&Tok::Eof, "end of input")?;

        for (id, slot, targets) in pending_refs {
            let mut ids = Vec::with_capacity(targets.len());
            for (lid, line, col) in targets {
                let t = local.get(&lid).copied().ok_or(MetaError::Syntax {
                    line,
                    col,
                    message: format!("reference to undefined object `{lid}`"),
                })?;
                ids.push(t);
            }
            model.set_refs(id, slot, ids);
        }
        Ok(model)
    }

    fn local_ref(&mut self) -> Result<(Cow<'s, str>, u32, u32)> {
        let (_, line, col) = self.cur;
        let lid = self.ident("object id")?;
        Ok((lid, line, col))
    }

    fn values(&mut self) -> Result<Vec<Value>> {
        if self.eat(&Tok::LBracket) {
            let mut out = Vec::new();
            if self.eat(&Tok::RBracket) {
                return Ok(out);
            }
            loop {
                out.push(self.value()?);
                if self.eat(&Tok::RBracket) {
                    return Ok(out);
                }
                self.expect(&Tok::Comma, "`,` or `]`")?;
            }
        }
        Ok(vec![self.value()?])
    }

    fn value(&mut self) -> Result<Value> {
        if self.eat(&Tok::Minus) {
            let value = match self.cur.0 {
                Tok::Int(i) => Value::Int(-i),
                Tok::Float(x) => Value::Float(-x),
                _ => return Err(self.err("expected number after `-`")),
            };
            self.bump();
            return Ok(value);
        }
        let value = match &mut self.cur.0 {
            Tok::Int(i) => Value::Int(*i),
            Tok::Float(x) => Value::Float(*x),
            Tok::Str(s) => Value::Str(std::mem::take(s).into_owned()),
            Tok::Ident("true") => Value::Bool(true),
            Tok::Ident("false") => Value::Bool(false),
            Tok::Ident(name) => {
                let name = name.to_string();
                self.bump();
                self.expect(&Tok::ColonColon, "`::` (enum literal)")?;
                let lit = self.ident("enum literal")?;
                return Ok(Value::Enum(name, lit.into_owned()));
            }
            _ => return Err(self.err("expected value")),
        };
        self.bump();
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{equivalent, DiffOptions};

    fn sample_model() -> Model {
        let mut m = Model::new("cml");
        let s = m.create("Session");
        m.set_attr(s, "name", Value::from("standup"));
        m.set_attr(s, "kind", Value::enumeration("Kind", "Video"));
        m.set_attr_many(s, "tags", vec![Value::from("daily"), Value::from("team")]);
        let p1 = m.create("Party");
        m.set_attr(p1, "name", Value::from("ana"));
        m.set_attr(p1, "bw", Value::from(250));
        let p2 = m.create("Party");
        m.set_attr(p2, "name", Value::from("bob"));
        m.set_attr(p2, "rate", Value::from(-1.5));
        m.set_refs(s, "parties", vec![p1, p2]);
        m.set_refs(s, "owner", vec![p1]);
        m
    }

    #[test]
    fn roundtrip_preserves_model() {
        let m = sample_model();
        let text = write(&m);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.metamodel_name(), "cml");
        assert!(equivalent(&m, &parsed, &DiffOptions::default()));
        // Arena order is preserved, so the models are structurally identical.
        assert_eq!(m, parsed);
    }

    #[test]
    fn parses_handwritten_source() {
        let src = r#"
            model sessions conformsTo cml {
              // a comment
              Session s1 {
                name = "standup"
                kind = Kind::Video
                parties -> [p1, p2]
                owner -> p1
              }
              Party p1 { name = "ana" bw = 250 ok = true }
              Party p2 { name = "bob" xs = [1, 2, 3] }
            }
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.len(), 3);
        let s = m.all_of_class("Session")[0];
        assert_eq!(m.refs(s, "parties").len(), 2);
        assert_eq!(m.attr_str(s, "name"), Some("standup"));
        let p2 = m.refs(s, "parties")[1];
        assert_eq!(m.attr_all(p2, "xs").len(), 3);
    }

    #[test]
    fn forward_references_allowed() {
        let src = r#"model m conformsTo mm {
            A a1 { next -> a2 }
            A a2 { }
        }"#;
        let m = parse(src).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn undefined_reference_rejected_with_position() {
        let src = "model m conformsTo mm {\n A a1 { next -> nope }\n}";
        let e = parse(src).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("undefined object `nope`"), "{msg}");
        assert!(msg.contains("2:"), "{msg}");
    }

    #[test]
    fn duplicate_local_id_rejected() {
        let src = "model m conformsTo mm { A x { } B x { } }";
        assert!(parse(src)
            .unwrap_err()
            .to_string()
            .contains("duplicate object id"));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("").is_err());
        assert!(parse("model m {").is_err());
        assert!(parse("model m conformsTo mm {").is_err());
        assert!(parse("model m conformsTo mm { A a {").is_err());
        assert!(parse("model m conformsTo mm { A a { x } }").is_err());
        assert!(parse("model m conformsTo mm { A a { x = } }").is_err());
        assert!(parse("model m conformsTo mm { A a { x = Color } }").is_err());
        assert!(parse("model m conformsTo mm {} trailing").is_err());
    }

    #[test]
    fn empty_model_roundtrip() {
        let m = Model::new("mm");
        let parsed = parse(&write(&m)).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(parsed.metamodel_name(), "mm");
    }

    #[test]
    fn negative_numbers_and_empty_lists() {
        let src = "model m conformsTo mm { A a { x = -3 y = -2.5 zs = [] } }";
        let m = parse(src).unwrap();
        let a = m.all_of_class("A")[0];
        assert_eq!(m.attr_int(a, "x"), Some(-3));
        assert_eq!(m.attr_float(a, "y"), Some(-2.5));
        assert!(m.attr_all(a, "zs").is_empty());
    }

    #[test]
    fn quoted_metamodel_name() {
        let src = "model \"my model\" conformsTo \"my mm\" { }";
        let m = parse(src).unwrap();
        assert_eq!(m.metamodel_name(), "my mm");
    }
}
