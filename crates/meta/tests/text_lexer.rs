//! Lexer-level behaviour of the textual model format, observed through
//! [`text::parse`]: Unicode identifiers and strings, escapes, comments,
//! `-` versus `->`, signed numbers, and the exact line/column reported for
//! errors. Columns count chars, not bytes, so an error that follows
//! multibyte characters sits where an editor shows it.

use mddsm_meta::text;
use mddsm_meta::{MetaError, Model, Value};

fn parse_ok(src: &str) -> Model {
    text::parse(src).unwrap_or_else(|e| panic!("{src:?} must parse: {e}"))
}

/// The `(line, col, message)` of a syntax error.
fn syntax_err(src: &str) -> (u32, u32, String) {
    match text::parse(src) {
        Err(MetaError::Syntax { line, col, message }) => (line, col, message),
        other => panic!("{src:?}: expected a syntax error, got {other:?}"),
    }
}

fn only(m: &Model, class: &str) -> mddsm_meta::ObjectId {
    let ids = m.all_of_class(class);
    assert_eq!(ids.len(), 1, "one `{class}` expected");
    ids[0]
}

#[test]
fn unicode_identifiers_and_strings() {
    let m =
        parse_ok("model modèle conformsTo 机器 { Café ç1 { név = \"héllo wörld ✓\" zähler = 3 } }");
    assert_eq!(m.metamodel_name(), "机器");
    let o = only(&m, "Café");
    assert_eq!(m.attr_str(o, "név"), Some("héllo wörld ✓"));
    assert_eq!(m.attr_int(o, "zähler"), Some(3));
}

#[test]
fn unicode_reference_targets_and_enum_literals() {
    let m = parse_ok("model m conformsTo mm { A ä { r -> [ö, ö] k = Färbung::Grün } B ö { } }");
    let a = only(&m, "A");
    let b = only(&m, "B");
    assert_eq!(m.refs(a, "r"), &[b, b]);
    assert_eq!(m.attr(a, "k"), Some(&Value::enumeration("Färbung", "Grün")));
}

#[test]
fn error_column_after_multibyte_chars_counts_chars() {
    // `ä` and `ü` are two bytes each and `✓` three; the `@` is char 18 of
    // line 2 but byte 22.
    let src = "model m conformsTo mm {\n  Ä ä { x = \"ü✓\" @ }\n}";
    assert_eq!(
        syntax_err(src),
        (2, 18, "unexpected character `@`".to_owned())
    );
}

#[test]
fn multibyte_unexpected_character_is_reported_whole() {
    let src = "model m conformsTo mm { A a { x = € } }";
    assert_eq!(
        syntax_err(src),
        (1, 35, "unexpected character `€`".to_owned())
    );
}

#[test]
fn parser_error_position_after_multibyte_chars() {
    // The parser reports the position of the offending token, here the
    // `}` that stands where a value belongs.
    let src = "model m conformsTo mm {\n  Ölß ñ { x = \"日本\"\n    y = }\n}";
    assert_eq!(syntax_err(src), (3, 9, "expected value".to_owned()));
}

#[test]
fn newline_inside_string_advances_the_line() {
    let src = "model m conformsTo mm { A a { s = \"è\nü\" } ? }";
    assert_eq!(
        syntax_err(src),
        (2, 6, "unexpected character `?`".to_owned())
    );
    let m = parse_ok("model m conformsTo mm { A a { s = \"è\nü\" } }");
    assert_eq!(m.attr_str(only(&m, "A"), "s"), Some("è\nü"));
}

#[test]
fn end_of_input_position_counts_chars() {
    let src = "model m conformsTo mm {\n  Ä ä { x = \"ü\"";
    assert_eq!(
        syntax_err(src),
        (
            2,
            16,
            "unexpected end of input (unclosed object body)".to_owned()
        )
    );
}

#[test]
fn every_escape() {
    let m = parse_ok(r#"model m conformsTo mm { A a { s = "q\"b\\n\nt\te" } }"#);
    assert_eq!(m.attr_str(only(&m, "A"), "s"), Some("q\"b\\n\nt\te"));
}

#[test]
fn escapes_next_to_multibyte_chars() {
    let m = parse_ok(r#"model m conformsTo mm { A a { s = "é\"ü\\" } }"#);
    assert_eq!(m.attr_str(only(&m, "A"), "s"), Some("é\"ü\\"));
}

#[test]
fn bad_escape_reports_its_position() {
    // The error sits on the backslash: char 37 here, after `é` (two bytes).
    let src = r#"model m conformsTo mm { A a { s = "é\q" } }"#;
    assert_eq!(syntax_err(src), (1, 37, "bad escape `\\q`".to_owned()));
}

#[test]
fn bad_escape_with_a_multibyte_char() {
    let src = "model m conformsTo mm { A a { s = \"\\é\" } }";
    assert_eq!(syntax_err(src), (1, 36, "bad escape `\\é`".to_owned()));
}

#[test]
fn backslash_at_end_of_input() {
    let src = "model m conformsTo mm { A a { s = \"ab\\";
    assert_eq!(syntax_err(src), (1, 38, "bad escape `\\ `".to_owned()));
}

#[test]
fn unterminated_string_reports_its_opening_quote() {
    let src = "model m conformsTo mm {\n A a { s = \"ñ never closed";
    assert_eq!(syntax_err(src), (2, 12, "unterminated string".to_owned()));
}

#[test]
fn comment_at_end_of_input_without_newline() {
    let m = parse_ok("model m conformsTo mm { A a { } } // trailing, no newline");
    assert_eq!(m.len(), 1);
    let m = parse_ok("model m conformsTo mm { A a { } }//");
    assert_eq!(m.len(), 1);
}

#[test]
fn comment_with_multibyte_chars_keeps_line_count() {
    let src = "// ünïcødé ✓ comment\nmodel m conformsTo mm { A a { x = % } }";
    assert_eq!(
        syntax_err(src),
        (2, 35, "unexpected character `%`".to_owned())
    );
}

#[test]
fn single_slash_and_colon_are_errors() {
    assert_eq!(
        syntax_err("model m conformsTo mm { / }"),
        (1, 25, "unexpected character `/`".to_owned())
    );
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { k = E:x } }"),
        (1, 36, "expected `::`".to_owned())
    );
}

#[test]
fn minus_versus_arrow() {
    let m = parse_ok("model m conformsTo mm { A a { x = -3 r -> b } B b { } }");
    let a = only(&m, "A");
    assert_eq!(m.attr_int(a, "x"), Some(-3));
    assert_eq!(m.refs(a, "r"), &[only(&m, "B")]);
    // `- >` is a minus and a stray `>`, not an arrow.
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { r - > b } }"),
        (1, 35, "unexpected character `>`".to_owned())
    );
    // An arrow where a value belongs.
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { x = -> b } }"),
        (1, 35, "expected value".to_owned())
    );
    // A minus not followed by a number.
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { x = - y } }"),
        (1, 37, "expected number after `-`".to_owned())
    );
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { x = -\"s\" } }"),
        (1, 36, "expected number after `-`".to_owned())
    );
}

#[test]
fn negative_ints_and_floats() {
    let m = parse_ok(
        "model m conformsTo mm { A a { i = -42 z = -0 f = -2.5 g = 0.125 \
         xs = [-1, 2, -3.75] big = 9223372036854775807 } }",
    );
    let a = only(&m, "A");
    assert_eq!(m.attr_int(a, "i"), Some(-42));
    assert_eq!(m.attr_int(a, "z"), Some(0));
    assert_eq!(m.attr(a, "f"), Some(&Value::Float(-2.5)));
    assert_eq!(m.attr(a, "g"), Some(&Value::Float(0.125)));
    assert_eq!(
        m.attr_all(a, "xs"),
        &[Value::Int(-1), Value::Int(2), Value::Float(-3.75)]
    );
    assert_eq!(m.attr_int(a, "big"), Some(i64::MAX));
}

#[test]
fn number_edge_cases() {
    // One past i64::MAX does not lex, even with a leading minus.
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { x = -9223372036854775808 } }"),
        (
            1,
            36,
            "bad int: number too large to fit in target type".to_owned()
        )
    );
    // A trailing dot is not part of a float.
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { x = 1. } }"),
        (1, 36, "unexpected character `.`".to_owned())
    );
    // Digits then letters: an int followed by an identifier slot name.
    let m = parse_ok("model m conformsTo mm { A a { x = 12y = 3 } }");
    let a = only(&m, "A");
    assert_eq!(m.attr_int(a, "x"), Some(12));
    assert_eq!(m.attr_int(a, "y"), Some(3));
}

#[test]
fn identifiers_with_digits_and_underscores() {
    let m = parse_ok("model _m1 conformsTo mm_2 { A_b _x9 { s_1 = true t = false } }");
    assert_eq!(m.metamodel_name(), "mm_2");
    let a = only(&m, "A_b");
    assert_eq!(m.attr_bool(a, "s_1"), Some(true));
    assert_eq!(m.attr_bool(a, "t"), Some(false));
}

#[test]
fn eof_token_sits_after_the_last_char() {
    let src = "model m conformsTo mm {\n  A a { }\n  // é\n";
    assert_eq!(
        syntax_err(src),
        (
            4,
            1,
            "unexpected end of input (unclosed model block)".to_owned()
        )
    );
}

#[test]
fn comment_that_ends_the_input_leaves_the_column_at_its_start() {
    assert_eq!(
        syntax_err("model m conformsTo mm { A a { } // ünclosed"),
        (
            1,
            33,
            "unexpected end of input (unclosed model block)".to_owned()
        )
    );
}

#[test]
fn unicode_whitespace_counts_one_column() {
    // U+00A0 (no-break space) and U+2003 (em space) are whitespace.
    let src = "model m conformsTo mm {\u{a0}\u{2003}# }";
    assert_eq!(
        syntax_err(src),
        (1, 26, "unexpected character `#`".to_owned())
    );
}
