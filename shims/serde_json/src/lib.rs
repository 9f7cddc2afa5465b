//! Minimal stand-in for `serde_json`: renders the serde shim's `Value` tree
//! as real JSON text and parses JSON text back into `Value` trees, so types
//! deriving `Serialize`/`Deserialize` round-trip through on-disk JSON.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Parse JSON text and deserialize it into `T`.
pub fn from_str<T: for<'de> Deserialize<'de>>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(|e| Error(e.to_string()))
}

/// Deepest nesting of arrays and objects a document may have (serde_json's
/// default recursion limit).  The parser recurses once per level, so a
/// deeper document is rejected with an error before it can overflow the
/// stack.
const MAX_DEPTH: usize = 128;

/// Parse JSON text into the serde shim's [`Value`] tree.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", parser.pos)));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.consume_literal("null") => Ok(Value::Null),
            Some(b't') if self.consume_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parse one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            entries.push((key, self.parse()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // escape as one slice: both are ASCII, so the run ends on a
            // char boundary of the input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let plain = self
                .text
                .get(self.pos..self.pos + run)
                .ok_or_else(|| self.error("invalid utf-8"))?;
            out.push_str(plain);
            self.pos += run;
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            if c == b'"' {
                return Ok(out);
            }
            // A backslash: decode one escape.
            let Some(esc) = self.peek() else {
                return Err(self.error("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let first = self.parse_hex4()?;
                    let scalar = if (0xD800..0xDC00).contains(&first) {
                        // High surrogate: a \uXXXX low surrogate must
                        // follow to form one supplementary character.
                        if !self.consume_literal("\\u") {
                            return Err(self.error("unpaired surrogate"));
                        }
                        let low = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                    } else {
                        first
                    };
                    match char::from_u32(scalar) {
                        Some(ch) => out.push(ch),
                        None => return Err(self.error("invalid unicode escape")),
                    }
                }
                _ => return Err(self.error("invalid escape character")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if text == "-0" {
                // Preserve the sign bit: `-0` can only have been written by
                // a float whose negative zero must survive the round trip.
                return Ok(Value::F64(-0.0));
            }
            if text.starts_with('-') {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::I64(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Serialize `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn render(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => {
            // JSON has no NaN/Infinity; mirror serde_json by refusing them
            // softly (null) rather than emitting invalid text.
            if n.is_finite() {
                out.push_str(&n.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                escape_into(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A JSON array of strings at least `bytes` long, mixing ASCII runs,
    /// multi-byte characters and escapes.
    fn string_document(bytes: usize) -> String {
        let item = "\"plain run, caf\u{e9} \u{2014} \u{1f680}, escapes \\\" \\\\ \\n \\u00e9 end\"";
        let mut doc = String::from("[");
        loop {
            doc.push_str(item);
            if doc.len() >= bytes {
                break;
            }
            doc.push(',');
        }
        doc.push(']');
        doc
    }

    // Timing is the point of this test (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    #[test]
    fn string_parsing_scales_linearly() {
        let best_of_3 = |doc: &str| {
            (0..3)
                .map(|_| {
                    // LINT: allow(wall-clock) — times the parser; only the
                    // ratio of two timings is asserted.
                    let started = std::time::Instant::now();
                    let parsed = parse_value(doc);
                    let elapsed = started.elapsed();
                    assert!(matches!(parsed, Ok(Value::Seq(_))));
                    elapsed
                })
                .min()
                .expect("three runs")
        };
        let small = best_of_3(&string_document(512 << 10));
        let large = best_of_3(&string_document(8 << 20));
        // 16× the bytes: ~16× the time if linear, ~256× if quadratic.
        assert!(
            large <= small * 32,
            "8 MB parsed in {large:?}, 512 KB in {small:?}"
        );
    }

    #[test]
    fn renders_nested_values_as_json() {
        let value = Value::Map(vec![
            ("name".to_string(), Value::Str("dynmo".to_string())),
            (
                "speedups".to_string(),
                Value::Seq(vec![Value::F64(1.5), Value::F64(2.25)]),
            ),
            ("gpus".to_string(), Value::U64(720)),
        ]);
        struct Wrapper(Value);
        impl Serialize for Wrapper {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let compact = to_string(&Wrapper(value.clone())).unwrap();
        assert_eq!(
            compact,
            "{\"name\":\"dynmo\",\"speedups\":[1.5,2.25],\"gpus\":720}"
        );
        let pretty = to_string_pretty(&Wrapper(value)).unwrap();
        assert!(pretty.contains("\n  \"name\": \"dynmo\""));
    }

    #[test]
    fn escapes_control_characters() {
        let s = to_string(&"a\"b\\c\nd").unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse_value("null").unwrap(), Value::Null);
        assert_eq!(parse_value(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("42").unwrap(), Value::U64(42));
        assert_eq!(parse_value("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse_value("2.5").unwrap(), Value::F64(2.5));
        assert_eq!(parse_value("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(
            parse_value("[1, 2]").unwrap(),
            Value::Seq(vec![Value::U64(1), Value::U64(2)])
        );
        assert_eq!(
            parse_value("{\"a\": [true], \"b\": \"x\"}").unwrap(),
            Value::Map(vec![
                ("a".to_string(), Value::Seq(vec![Value::Bool(true)])),
                ("b".to_string(), Value::Str("x".to_string())),
            ])
        );
        assert_eq!(parse_value("[]").unwrap(), Value::Seq(vec![]));
        assert_eq!(parse_value("{}").unwrap(), Value::Map(vec![]));
    }

    #[test]
    fn parses_string_escapes_and_unicode() {
        assert_eq!(
            parse_value("\"a\\n\\t\\\"\\\\b\"").unwrap(),
            Value::Str("a\n\t\"\\b".to_string())
        );
        assert_eq!(
            parse_value("\"\\u00e9\\uD83D\\uDE00é\"").unwrap(),
            Value::Str("é😀é".to_string())
        );
        // Multi-byte characters inside plain runs between escapes.
        assert_eq!(
            parse_value("\"caf\u{e9} \u{2014}\\n\u{1f680} run\\\"\"").unwrap(),
            Value::Str("caf\u{e9} \u{2014}\n\u{1f680} run\"".to_string())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "[1,", "{\"a\"}", "nul", "\"open", "1 2", "[1] x"] {
            assert!(parse_value(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_128_levels() {
        let array = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let object = |depth: usize| "{\"a\":".repeat(depth) + "0" + &"}".repeat(depth);
        assert!(parse_value(&array(MAX_DEPTH)).is_ok());
        assert!(parse_value(&object(MAX_DEPTH)).is_ok());
        assert!(parse_value(&array(MAX_DEPTH + 1)).is_err());
        assert!(parse_value(&object(MAX_DEPTH + 1)).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(parse_value(&array(100_000)).is_err());
        assert!(parse_value(&object(100_000)).is_err());
        assert!(parse_value(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn derived_types_round_trip_through_json_text() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Nested {
            id: usize,
            scale: f64,
        }
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        enum Mode {
            Off,
            EveryN(u64),
            Window { lo: f64, hi: f64 },
        }
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Doc {
            name: String,
            values: Vec<f32>,
            nested: Vec<Nested>,
            mode: Mode,
            fallback: Option<Mode>,
            pairs: Vec<(u64, f64)>,
        }
        let doc = Doc {
            name: "round-trip".to_string(),
            values: vec![0.1, -2.5, 3.25e-8],
            nested: vec![Nested {
                id: 3,
                scale: 0.125,
            }],
            mode: Mode::Window { lo: -1.5, hi: 0.5 },
            fallback: Some(Mode::EveryN(250)),
            pairs: vec![(9, 0.75)],
        };
        let text = to_string_pretty(&doc).unwrap();
        let back: Doc = from_str(&text).unwrap();
        assert_eq!(back, doc);
        let unit: Mode = from_str("\"Off\"").unwrap();
        assert_eq!(unit, Mode::Off);
        assert!(from_str::<Doc>("{\"name\": 3}").is_err());
    }

    #[test]
    fn floats_round_trip_bit_for_bit_through_text() {
        for x in [
            0.1f64,
            -0.0,
            -1.0 / 3.0,
            1e-300,
            6.02214076e23,
            f64::EPSILON,
        ] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn derive_handles_generic_field_types_and_enums() {
        // Exercises the serde_derive shim's token parser: a field type with
        // a top-level generic comma, unit/tuple/struct enum variants.
        #[derive(serde::Serialize)]
        struct Row {
            counts: std::collections::BTreeMap<String, u64>,
            tags: Vec<(String, f64)>,
            kind: Kind,
        }
        #[derive(serde::Serialize)]
        enum Kind {
            Unit,
            Pair(u32, u32),
            Named { x: f64 },
        }

        let mut counts = std::collections::BTreeMap::new();
        counts.insert("a".to_string(), 1u64);
        let row = Row {
            counts,
            tags: vec![("t".to_string(), 0.5)],
            kind: Kind::Pair(3, 4),
        };
        assert_eq!(
            to_string(&row).unwrap(),
            "{\"counts\":{\"a\":1},\"tags\":[[\"t\",0.5]],\"kind\":{\"Pair\":[3,4]}}"
        );
        assert_eq!(to_string(&Kind::Unit).unwrap(), "\"Unit\"");
        assert_eq!(
            to_string(&Kind::Named { x: 1.5 }).unwrap(),
            "{\"Named\":{\"x\":1.5}}"
        );
    }
}
