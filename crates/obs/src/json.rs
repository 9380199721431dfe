//! The workspace's one hand-rolled JSON implementation.
//!
//! The vendored serde stub performs no format serialization, so every
//! emitter in the workspace used to format its own JSON strings — and
//! every emitter could drift in escaping or key style. This module is the
//! single shared renderer ([`JsonValue::render`] /
//! [`JsonValue::render_pretty`]) and a small recursive-descent parser
//! ([`parse`]) used by the trace validator to check emitted output.
//!
//! Rendering conventions (chosen to match the JSON the workspace already
//! emits, which existing tests assert on): object entries render as
//! `"key": value` with a space after the colon, array/object separators
//! are `", "` in compact mode, and floats carry an explicit precision so
//! output is reproducible across runs.

use std::fmt::Write as _;

/// A JSON document tree.
///
/// Object keys keep insertion order — emitters control their own key
/// order, and deterministic output matters more than canonical sorting.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float rendered with a fixed number of decimal places.
    Float {
        /// The value to render.
        value: f64,
        /// Decimal places to emit (e.g. `1` renders `3.5`, `4` renders
        /// `3.5000`).
        precision: usize,
    },
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An ordered key/value object.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Shorthand for a float with one decimal place (the workspace's
    /// house style for means and rates expressed in µs).
    pub fn f1(value: f64) -> JsonValue {
        JsonValue::Float {
            value,
            precision: 1,
        }
    }

    /// Shorthand for building an object from `(key, value)` pairs.
    pub fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value compactly on one line: `{"a": 1, "b": [2, 3]}`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Renders the value with two-space indentation and trailing newline,
    /// the house style for `BENCH_*.json` artifacts.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Int(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Float { value, precision } => {
                let _ = write!(out, "{value:.precision$}");
            }
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    push_indent(out, indent + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// This is a deliberately small strict parser: it exists so the CI trace
/// validator can assert that everything the workspace emits round-trips,
/// without vendoring a format crate. Numbers parse into [`JsonValue::UInt`]
/// / [`JsonValue::Int`] when integral and fit, otherwise into a
/// [`JsonValue::Float`] whose `precision` records the digits seen after
/// the decimal point.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Returns `Ok(())` when `input` is a complete, valid JSON document.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates are not paired here; the workspace
                            // never emits them, so reject rather than mangle.
                            let c =
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                other => {
                    return Err(format!(
                        "unterminated string (found {:?} at byte {})",
                        other.map(|c| c as char),
                        self.pos
                    ))
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fraction_digits = 0usize;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !is_float => {
                    is_float = true;
                    self.pos += 1;
                    let frac_start = self.pos;
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                    fraction_digits = self.pos - frac_start;
                    if fraction_digits == 0 {
                        return Err(format!("bare decimal point at byte {}", self.pos));
                    }
                }
                b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                    if !matches!(self.peek(), Some(b'0'..=b'9')) {
                        return Err(format!("empty exponent at byte {}", self.pos));
                    }
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                    break;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(|value| JsonValue::Float {
                value,
                precision: fraction_digits.max(1),
            })
            .map_err(|_| format!("invalid number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_render_matches_house_style() {
        let v = JsonValue::obj(vec![
            ("count", JsonValue::UInt(10)),
            ("mean_us", JsonValue::f1(3.25)),
            (
                "tags",
                JsonValue::Array(vec![JsonValue::Str("a\"b".into())]),
            ),
            ("none", JsonValue::Null),
        ]);
        assert_eq!(
            v.render(),
            "{\"count\": 10, \"mean_us\": 3.2, \"tags\": [\"a\\\"b\"], \"none\": null}"
        );
    }

    #[test]
    fn pretty_render_indents_and_terminates() {
        let v = JsonValue::obj(vec![(
            "inner",
            JsonValue::obj(vec![("x", JsonValue::UInt(1))]),
        )]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"inner\": {\n    \"x\": 1\n  }\n}\n"
        );
    }

    #[test]
    fn parse_round_trips_rendered_output() {
        let v = JsonValue::obj(vec![
            ("a", JsonValue::Int(-3)),
            ("b", JsonValue::Bool(true)),
            (
                "c",
                JsonValue::Array(vec![JsonValue::UInt(0), JsonValue::Null]),
            ),
            ("s", JsonValue::Str("line\nbreak\ttab \\ \"q\"".into())),
        ]);
        let parsed = parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        let parsed_pretty = parse(&v.render_pretty()).unwrap();
        assert_eq!(parsed_pretty, v);
    }

    #[test]
    fn parse_accepts_floats_and_exponents() {
        assert!(matches!(
            parse("3.50").unwrap(),
            JsonValue::Float { value, .. } if (value - 3.5).abs() < 1e-12
        ));
        assert!(matches!(
            parse("-1e3").unwrap(),
            JsonValue::Float { value, .. } if (value + 1000.0).abs() < 1e-9
        ));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "01x",
            "nul",
            "1.",
            "{\"a\":}",
            "[1 2]",
            "\"bad \\q escape\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn getters_navigate_objects() {
        let v = parse("{\"a\": {\"b\": 7}, \"s\": \"x\"}").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")).and_then(|b| b.as_u64()),
            Some(7)
        );
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        let v = JsonValue::Str("\u{1}".into());
        assert_eq!(v.render(), "\"\\u0001\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }
}
