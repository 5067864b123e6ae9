//! Hand-rolled JSON encode/decode for the request/response bodies.
//!
//! The workspace's offline dependency policy rules out `serde`, and the
//! server only needs a small, strict subset: UTF-8 text, the six JSON value
//! kinds, no comments, no trailing commas. Numbers parse as `f64` (the
//! bodies only carry pixel values, counts and latencies, all well inside
//! `f64`'s exact-integer range). Parsing is recursive descent with an
//! explicit depth limit so a hostile body cannot blow the stack.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object; `None` for other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // JSON has no NaN/Infinity; degrade to null like JS does.
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure with a byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, non-UTF-8 strings, or nesting
/// deeper than the fixed depth limit.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let token = &self.input[start..self.pos];
        // Fast path for plain integers (pixel values, labels, counts): up
        // to 15 digits stay below 2^53, so accumulating them is exact and
        // equals `str::parse::<f64>` bit for bit, `-0` included.
        let (negative, digits) = match token.split_first() {
            Some((b'-', rest)) => (true, rest),
            _ => (false, token),
        };
        if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
            let magnitude = digits.iter().fold(0u64, |n, d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(Json::Num(if negative { -magnitude } else { magnitude }));
        }
        let text = std::str::from_utf8(token).map_err(|_| self.err("non-UTF-8 number"))?;
        let n: f64 = text.parse().map_err(|_| JsonError {
            message: format!("invalid number '{text}'"),
            offset: start,
        })?;
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined; the protocol never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.input.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.input[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse(b"null").unwrap(), Json::Null);
        assert_eq!(parse(b"true").unwrap(), Json::Bool(true));
        assert_eq!(parse(b"false").unwrap(), Json::Bool(false));
        assert_eq!(parse(b"42").unwrap(), Json::Num(42.0));
        assert_eq!(parse(b"-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(b"\"hi\"").unwrap(), Json::Str("hi".to_owned()));
    }

    #[test]
    fn parses_nested() {
        let doc = br#"{"model": "default", "inputs": [[0, 1], [2, 3]], "flag": true}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("model").and_then(Json::as_str), Some("default"));
        let inputs = v.get("inputs").and_then(Json::as_array).unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[1].as_array().unwrap()[0].as_f64(), Some(2.0));
    }

    #[test]
    fn round_trips_rendering() {
        let doc = br#"{"a":[1,2,{"b":"x\ny"}],"c":null,"d":false}"#;
        let v = parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(parse(rendered.as_bytes()).unwrap(), v);
    }

    #[test]
    fn escapes_in_strings() {
        let v = parse(br#""line\n\"quoted\" A""#).unwrap();
        assert_eq!(v.as_str(), Some("line\n\"quoted\" A"));
        assert_eq!(Json::from("a\"b\\c\n").render(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"{"[..],
            b"[1, 2",
            b"{\"a\" 1}",
            b"tru",
            b"1 2",
            b"\"unterminated",
            b"{\"a\": }",
            b"[,]",
            b"",
            b"nan",
            b"--1",
        ] {
            assert!(parse(bad).is_err(), "accepted {:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn numbers_match_str_parse_bit_for_bit() {
        let mut tokens: Vec<String> = (0..=1000).map(|n: u32| n.to_string()).collect();
        tokens.extend(
            [
                "000000000000042",
                "0000000000000042",
                "999999999999999",
                "1000000000000000",
                "9007199254740991",
                "9007199254740993",
                "-0",
                "-12",
                "1.0",
                "1e2",
                "01e1",
            ]
            .map(String::from),
        );
        for token in &tokens {
            let expected: f64 = token.parse().unwrap();
            let parsed = parse(token.as_bytes()).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), expected.to_bits(), "token {token}");
        }
        for (bad, message, offset) in [
            ("-", "invalid number '-'", 0),
            ("1-2", "invalid number '1-2'", 0),
            ("1e", "invalid number '1e'", 0),
            ("[7, 1e]", "invalid number '1e'", 4),
        ] {
            let err = parse(bad.as_bytes()).unwrap_err();
            assert_eq!((err.message.as_str(), err.offset), (message, offset), "token {bad}");
        }
    }

    #[test]
    fn rejects_excessive_depth() {
        let mut doc = Vec::new();
        doc.extend(std::iter::repeat_n(b'[', 200));
        doc.extend(std::iter::repeat_n(b']', 200));
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::from(1_000_000u64).render(), "1000000");
        assert_eq!(Json::Num(1.25).render(), "1.25");
    }
}
