//! The one JSON value type: what the daemon parses out of request lines,
//! and what every envelope, SARIF log, daemon header and `stats` payload
//! is rendered from.
//!
//! Everything here is hand-rolled on `std` (the workspace builds
//! offline, so no serde). Object fields keep their order — input order
//! when parsed, construction order when built — so identical values
//! render to identical bytes, a guarantee the golden-file tests depend
//! on. [`JsonNode::pretty`] writes the two-space indented envelopes;
//! [`JsonNode::compact`] writes one line with no insignificant
//! whitespace, the framing the daemon's newline-delimited headers need
//! (a header must never contain a raw newline).
//!
//! [`parse_json`] reads JSON from untrusted clients, so it is strict and
//! bounded: it accepts RFC 8259's grammar and nothing wider (no leading
//! zeros, no bare `1.`, exactly four hex digits per `\u` escape),
//! recursion depth is capped, escapes are validated (including surrogate
//! pairs), and any trailing garbage is an error. Input size is bounded
//! upstream by the request-line limit.

use std::fmt::Write as _;

/// Maximum nesting depth a parsed document may use.
const MAX_JSON_DEPTH: usize = 64;

/// An ordered JSON value. Object fields keep their input (or
/// construction) order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonNode {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer: wide enough for every `i64` a request carries
    /// and every `u64` counter a reply renders.
    Int(i128),
    /// Any other number. Rendered with one decimal place, which keeps
    /// the output locale- and magnitude-stable.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonNode>),
    /// An object, fields in order.
    Obj(Vec<(String, JsonNode)>),
}

/// A string value.
pub fn s(v: impl Into<String>) -> JsonNode {
    JsonNode::Str(v.into())
}

/// An unsigned counter value.
pub fn int(n: u64) -> JsonNode {
    JsonNode::Int(n.into())
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj(fields: Vec<(&str, JsonNode)>) -> JsonNode {
    JsonNode::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// `text` as a JSON string literal, quotes included: the one escaping
/// that envelopes, daemon headers and request lines all use.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    quote_into(text, &mut out);
    out
}

fn quote_into(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
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

impl JsonNode {
    /// Renders the value two-space indented, with a trailing newline:
    /// the `pncheck` envelopes and SARIF logs.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(Some(0), &mut out);
        out.push('\n');
        out
    }

    /// Renders the value on one line with no insignificant whitespace:
    /// the daemon's response headers and `stats` payload.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(None, &mut out);
        out
    }

    /// Writes the value at nesting `depth`, or compactly when `None`.
    fn write(&self, depth: Option<usize>, out: &mut String) {
        match self {
            JsonNode::Null => out.push_str("null"),
            JsonNode::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonNode::Int(n) => {
                // Nearly every value is a `u64` counter: format those on
                // the `u64` path, only the rest as `i128`.
                let _ = match u64::try_from(*n) {
                    Ok(counter) => write!(out, "{counter}"),
                    Err(_) => write!(out, "{n}"),
                };
            }
            JsonNode::Float(x) => {
                let _ = write!(out, "{x:.1}");
            }
            JsonNode::Str(text) => quote_into(text, out),
            JsonNode::Arr(items) => {
                write_members(('[', ']'), items.iter().map(|v| (None, v)), depth, out);
            }
            JsonNode::Obj(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(('{', '}'), members, depth, out);
            }
        }
    }
}

/// Writes an array's items or an object's fields between `brackets`.
/// Indented, each member sits on its own line one step deeper than
/// `depth`, and an empty container stays `[]` or `{}`.
fn write_members<'a>(
    brackets: (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a JsonNode)>,
    depth: Option<usize>,
    out: &mut String,
) {
    let newline = |level: usize, out: &mut String| {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    };
    out.push(brackets.0);
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(level) = depth {
            newline(level + 1, out);
        }
        if let Some(key) = key {
            quote_into(key, out);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.write(depth.map(|level| level + 1), out);
    }
    if let (Some(level), false) = (depth, empty) {
        newline(level, out);
    }
    out.push(brackets.1);
}

/// Parses one JSON document; the whole input must be consumed.
pub fn parse_json(text: &str) -> Result<JsonNode, String> {
    let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
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
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonNode, String> {
        if depth > MAX_JSON_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonNode::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonNode::Bool(true)),
            Some(b'f') => self.literal("false", JsonNode::Bool(false)),
            Some(b'n') => self.literal("null", JsonNode::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(format!("unexpected character {:?} at byte {}", char::from(other), self.pos))
            }
        }
    }

    fn literal(&mut self, word: &str, node: JsonNode) -> Result<JsonNode, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(node)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonNode, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonNode::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonNode::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonNode, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonNode::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonNode::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Four hex digits, exactly: `u16::from_str_radix` alone would also
    /// take a sign.
    fn hex4(&mut self) -> Result<u16, String> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_owned())?;
        if !slice.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("invalid \\u escape {text:?}"));
        }
        let code = u16::from_str_radix(text, 16).expect("four hex digits fit a u16");
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must
                                // follow with the low half.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err("unpaired surrogate".to_owned());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".to_owned());
                                }
                                let code = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("unpaired surrogate".to_owned());
                            } else {
                                char::from_u32(u32::from(hi)).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through verbatim; the
                    // input is already a &str, so it is valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b >= 0x80 && (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was valid UTF-8"),
                    );
                }
            }
        }
    }

    /// A number token: the longest run of number characters, which must
    /// then match RFC 8259's `-? int frac? exp?`. An integer that fits
    /// `i64` is an `Int`; any other valid number is a `Float`.
    fn number(&mut self) -> Result<JsonNode, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let token = &self.bytes[start..self.pos];
        let text = std::str::from_utf8(token).expect("number bytes are ASCII");
        let invalid = || format!("invalid number {text:?} at byte {start}");
        let integral = rfc8259_number(token).ok_or_else(invalid)?;
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonNode::Int(n.into()));
            }
        }
        text.parse::<f64>().map(JsonNode::Float).map_err(|_| invalid())
    }
}

/// Whether `token` is an RFC 8259 number, and if so whether it has
/// neither a fraction nor an exponent.
fn rfc8259_number(token: &[u8]) -> Option<bool> {
    let digits = |rest: &[u8]| rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let mut rest = token.strip_prefix(b"-").unwrap_or(token);
    match digits(rest) {
        0 => return None,
        n if n > 1 && rest[0] == b'0' => return None,
        n => rest = &rest[n..],
    }
    let mut integral = true;
    if let Some(frac) = rest.strip_prefix(b".") {
        let n = digits(frac);
        if n == 0 {
            return None;
        }
        rest = &frac[n..];
        integral = false;
    }
    if let Some(exp) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exp = exp.strip_prefix(b"+").or_else(|| exp.strip_prefix(b"-")).unwrap_or(exp);
        let n = digits(exp);
        if n == 0 {
            return None;
        }
        rest = &exp[n..];
        integral = false;
    }
    rest.is_empty().then_some(integral)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_scalars_and_structures() {
        assert_eq!(parse_json("null"), Ok(JsonNode::Null));
        assert_eq!(parse_json(" true "), Ok(JsonNode::Bool(true)));
        assert_eq!(parse_json("-42"), Ok(JsonNode::Int(-42)));
        assert_eq!(parse_json("2.5"), Ok(JsonNode::Float(2.5)));
        assert_eq!(parse_json("\"a\\nb\""), Ok(JsonNode::Str("a\nb".into())));
        assert_eq!(parse_json("\"\\u00e9\\ud83d\\ude00\""), Ok(JsonNode::Str("é😀".into())));
        assert_eq!(
            parse_json("[1, \"two\", {\"k\": null}]"),
            Ok(JsonNode::Arr(vec![
                JsonNode::Int(1),
                JsonNode::Str("two".into()),
                JsonNode::Obj(vec![("k".into(), JsonNode::Null)]),
            ]))
        );
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "01e",
            "nul",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\ud800\"",
            "1 2",
            "{\"a\":1} trailing",
            // RFC 8259 forbids these; Rust's own number and radix
            // parsers would take them.
            "\"\\u+041\"",
            "01",
            "1.",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep).unwrap_err().contains("deep"));
    }

    #[test]
    fn json_escaping_covers_control_and_quote_characters() {
        let v = s("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.pretty(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn compact_rendering_is_single_line_and_escaped() {
        let v = obj(vec![
            ("ok", JsonNode::Bool(true)),
            ("n", int(3)),
            ("text", s("two\nlines")),
            ("arr", JsonNode::Arr(vec![JsonNode::Null, int(1)])),
            ("empty", obj(vec![])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(
            line,
            "{\"ok\":true,\"n\":3,\"text\":\"two\\nlines\",\"arr\":[null,1],\"empty\":{}}"
        );
    }

    #[test]
    fn pretty_rendering_indents_two_spaces_and_keeps_empty_containers_inline() {
        let v = obj(vec![
            ("a", JsonNode::Arr(vec![int(1), obj(vec![("b", JsonNode::Null)])])),
            ("e", JsonNode::Arr(vec![])),
            ("f", JsonNode::Float(2.25)),
            ("max", int(u64::MAX)),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": null\n    }\n  ],\n  \"e\": [],\n  \
             \"f\": 2.2,\n  \"max\": 18446744073709551615\n}\n"
        );
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, node) in [
            ("0", JsonNode::Int(0)),
            ("-0", JsonNode::Int(0)),
            ("-12", JsonNode::Int(-12)),
            ("1.5", JsonNode::Float(1.5)),
            ("1e2", JsonNode::Float(100.0)),
            ("-0.5E-1", JsonNode::Float(-0.05)),
            ("9223372036854775808", JsonNode::Float(9223372036854775808.0)),
        ] {
            assert_eq!(parse_json(text), Ok(node), "{text}");
        }
        for bad in ["01", "-01", "1.", ".5", "-.5", "1e", "1e+", "+1", "-", "1.2.3", "00"] {
            let err = parse_json(bad).expect_err(bad);
            assert!(
                err.starts_with("invalid number") || err.contains("unexpected"),
                "{bad}: {err}"
            );
        }
    }
}
