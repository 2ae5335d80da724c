//! A minimal, dependency-free JSON codec used for JWT headers/claims and
//! the simulated SAML-like assertion payloads.
//!
//! Objects preserve insertion order on build and serialize deterministically
//! (insertion order), which keeps signed payloads byte-stable across runs —
//! important for the deterministic experiments.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number. Integers are exact up to i64; everything else is f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand string constructor.
    pub fn s(v: impl Into<String>) -> Value {
        Value::Str(v.into())
    }

    /// Shorthand integer constructor.
    pub fn i(v: i64) -> Value {
        Value::Num(v as f64)
    }

    /// Shorthand unsigned constructor (exact up to 2^53).
    pub fn u(v: u64) -> Value {
        Value::Num(v as f64)
    }

    /// Get a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Interpret as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as an integer (floors the stored f64).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => Some(*n as i64),
            _ => None,
        }
    }

    /// Interpret as u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Interpret as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret as array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Insert a field (only valid on objects).
    pub fn set(&mut self, key: impl Into<String>, value: Value) {
        if let Value::Obj(m) = self {
            m.insert(key.into(), value);
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Parse a JSON string.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::TrailingData(p.pos));
        }
        Ok(v)
    }
}

/// Append the compact JSON of `v` to `out`.
pub(crate) fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Append a JSON number: integral values below 9e15 print as integers.
pub(crate) fn write_number(n: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = if n.fract() == 0.0 && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

/// Append `s` as a quoted, escaped JSON string.
pub(crate) fn write_string(s: &str, out: &mut String) {
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

/// Errors from JSON parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Unexpected end of input.
    Eof,
    /// Unexpected byte at offset.
    Unexpected(usize, char),
    /// Invalid escape sequence at offset.
    BadEscape(usize),
    /// Invalid number at offset.
    BadNumber(usize),
    /// Invalid UTF-8 inside a string.
    BadUtf8,
    /// Extra non-whitespace data after the top-level value.
    TrailingData(usize),
    /// Nesting too deep.
    TooDeep,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Eof => write!(f, "unexpected end of JSON input"),
            JsonError::Unexpected(at, c) => write!(f, "unexpected {c:?} at byte {at}"),
            JsonError::BadEscape(at) => write!(f, "bad escape at byte {at}"),
            JsonError::BadNumber(at) => write!(f, "bad number at byte {at}"),
            JsonError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            JsonError::TrailingData(at) => write!(f, "trailing data at byte {at}"),
            JsonError::TooDeep => write!(f, "JSON nesting too deep"),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.value_depth(0)
    }

    fn value_depth(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        self.skip_ws();
        match self.peek().ok_or(JsonError::Eof)? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value_depth(depth + 1)?);
                    self.skip_ws();
                    match self.peek().ok_or(JsonError::Eof)? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        c => return Err(JsonError::Unexpected(self.pos, c as char)),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(JsonError::Unexpected(
                            self.pos,
                            self.peek().map(|c| c as char).unwrap_or('\0'),
                        ));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(JsonError::Unexpected(
                            self.pos,
                            self.peek().map(|c| c as char).unwrap_or('\0'),
                        ));
                    }
                    self.pos += 1;
                    let val = self.value_depth(depth + 1)?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek().ok_or(JsonError::Eof)? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Obj(map));
                        }
                        c => return Err(JsonError::Unexpected(self.pos, c as char)),
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(JsonError::Unexpected(self.pos, c as char)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::Unexpected(
                self.pos,
                self.bytes[self.pos] as char,
            ))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or(JsonError::Eof)?;
            self.pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or(JsonError::Eof)?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(JsonError::BadEscape(self.pos));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(JsonError::BadEscape(self.pos));
                                }
                                let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(combined).ok_or(JsonError::BadUtf8)?
                            } else {
                                char::from_u32(cp).ok_or(JsonError::BadUtf8)?
                            };
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(JsonError::BadEscape(self.pos - 1)),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| JsonError::BadUtf8)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::Eof);
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::BadUtf8)?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError::BadEscape(self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError::BadUtf8)?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| JsonError::BadNumber(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = Value::obj([
            ("sub", Value::s("user@example.org")),
            ("exp", Value::u(1_699_999_999)),
            ("admin", Value::Bool(false)),
            (
                "roles",
                Value::Arr(vec![Value::s("pi"), Value::s("researcher")]),
            ),
            ("nested", Value::obj([("a", Value::Null)])),
        ]);
        let s = v.to_json();
        let back = Value::parse(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn deterministic_serialization() {
        let mut a = Value::Obj(BTreeMap::new());
        a.set("zeta", Value::i(1));
        a.set("alpha", Value::i(2));
        let mut b = Value::Obj(BTreeMap::new());
        b.set("alpha", Value::i(2));
        b.set("zeta", Value::i(1));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_json(), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Value::parse(" { \"a\" : [ 1 , 2.5 , -3e2 , true , null ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1], Value::Num(2.5));
        assert_eq!(arr[2], Value::Num(-300.0));
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(arr[4], Value::Null);
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("line\nquote\"back\\slash\ttab\u{1}".into());
        let s = v.to_json();
        assert_eq!(s, r#""line\nquote\"back\\slash\ttab\u0001""#);
        assert_eq!(Value::parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        // é is é; the surrogate pair 😀 is 😀.
        assert_eq!(Value::parse("\"\\u00e9\"").unwrap(), Value::Str("é".into()));
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".into())
        );
        // Literal (unescaped) multibyte text also passes through.
        assert_eq!(Value::parse("\"é😀\"").unwrap(), Value::Str("é😀".into()));
        assert!(Value::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn rejects_trailing_and_garbage() {
        assert_eq!(Value::parse("{} extra"), Err(JsonError::TrailingData(3)));
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(Value::parse(&deep), Err(JsonError::TooDeep));
    }

    #[test]
    fn integer_formatting_is_plain() {
        assert_eq!(Value::u(45).to_json(), "45");
        assert_eq!(Value::i(-45).to_json(), "-45");
        assert_eq!(Value::Num(1.5).to_json(), "1.5");
    }
}
