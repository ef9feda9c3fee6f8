//! A hand-written RFC 8259 JSON reader/writer for the SQL++ data model.
//!
//! Mapping (format independence, §I tenet 5): JSON objects → tuples
//! (duplicate keys preserved), JSON arrays → arrays, `null` → NULL.
//! JSON has no bag, so bags serialize as arrays (the standard lossy choice
//! every SQL++ engine makes when emitting JSON); integers without
//! fraction/exponent → Int, fractional numbers → exact Decimal, exponent
//! form → Float.

use std::fmt::Write as _;

use sqlpp_value::{AttrName, Decimal, Tuple, Value};

use crate::error::FormatError;

/// Parses one JSON value.
pub fn from_json(text: &str) -> Result<Value, FormatError> {
    let mut p = JsonParser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        key: String::new(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Parses a stream of whitespace/newline-separated JSON values (JSON Lines)
/// into a bag — the natural way to load a collection of documents.
pub fn from_json_lines(text: &str) -> Result<Value, FormatError> {
    let mut p = JsonParser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        key: String::new(),
    };
    let mut items = Vec::new();
    loop {
        p.skip_ws();
        if p.pos == p.bytes.len() {
            break;
        }
        items.push(p.value()?);
    }
    Ok(Value::Bag(items))
}

/// Serializes a value as JSON. MISSING inside collections is skipped (it
/// cannot be represented); a top-level MISSING serializes as `null`.
/// Non-finite floats serialize as `null` (JSON has no NaN/Infinity).
pub fn to_json(v: &Value) -> String {
    let mut s = String::new();
    write_json(v, &mut s);
    s
}

fn write_json(v: &Value, out: &mut String) {
    match v {
        Value::Missing | Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                if *f == f.trunc() && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Decimal(d) => {
            let _ = write!(out, "{d}");
        }
        Value::Str(s) => write_json_string(s, out),
        Value::Bytes(b) => {
            // Bytes have no JSON form; use a lowercase hex string.
            out.push('"');
            for byte in b {
                let _ = write!(out, "{byte:02x}");
            }
            out.push('"');
        }
        Value::Array(items) | Value::Bag(items) => {
            out.push('[');
            let mut first = true;
            for item in items {
                if item.is_missing() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                write_json(item, out);
            }
            out.push(']');
        }
        Value::Tuple(t) => {
            out.push('{');
            for (i, (name, value)) in t.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(name, out);
                out.push(':');
                write_json(value, out);
            }
            out.push('}');
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Scratch for object keys: each is unescaped here and interned, so
    /// a key makes no heap string of its own.
    key: String,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: impl Into<String>) -> FormatError {
        FormatError::parse("json", msg, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), FormatError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, FormatError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, FormatError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal (expected {word})")))
        }
    }

    fn object(&mut self) -> Result<Value, FormatError> {
        self.expect(b'{')?;
        let mut t = Tuple::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Tuple(t));
        }
        loop {
            self.skip_ws();
            let mut buf = std::mem::take(&mut self.key);
            buf.clear();
            self.string_into(&mut buf)?;
            // Named before the value is parsed: a nested object reuses
            // the buffer.
            let key = AttrName::from(buf.as_str());
            self.key = buf;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            t.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Tuple(t)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, FormatError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, FormatError> {
        let mut s = String::new();
        self.string_into(&mut s)?;
        Ok(s)
    }

    /// Appends the unescaped contents of the string at the cursor to `s`.
    fn string_into(&mut self, s: &mut String) -> Result<(), FormatError> {
        self.expect(b'"')?;
        loop {
            match self.bump() {
                Some(b'"') => return Ok(()),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{08}'),
                    Some(b'f') => s.push('\u{0c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                                .ok_or_else(|| self.err("invalid surrogate pair"))?
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        };
                        s.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(b) if b < 0x80 => s.push(b as char),
                Some(_) => {
                    // Multi-byte UTF-8: decode in place from the source
                    // str (O(1) — never re-validate the remaining input).
                    let start = self.pos - 1;
                    let ch = self.text[start..].chars().next().expect("in bounds");
                    self.pos = start + ch.len_utf8();
                    s.push(ch);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, FormatError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            v = v * 16
                + (d as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("invalid hex digit"))?;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, FormatError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut is_int = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' => {
                    is_int = false;
                    self.bump();
                }
                b'e' | b'E' => {
                    is_int = false;
                    self.bump();
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        if is_int {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        if !text.contains(['e', 'E']) {
            if let Ok(d) = text.parse::<Decimal>() {
                return Ok(Value::Decimal(d));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::{array, tuple};

    #[test]
    fn parses_scalars() {
        assert_eq!(from_json("42").unwrap(), Value::Int(42));
        assert_eq!(from_json("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_json("true").unwrap(), Value::Bool(true));
        assert_eq!(from_json("null").unwrap(), Value::Null);
        assert_eq!(from_json("\"hi\"").unwrap(), Value::Str("hi".into()));
        assert_eq!(
            from_json("3.14").unwrap(),
            Value::Decimal("3.14".parse().unwrap())
        );
        assert_eq!(from_json("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn parses_structures() {
        let v = from_json(r#"{"id": 3, "projects": [{"name": "OLAP"}, null]}"#).unwrap();
        let expected = Value::Tuple(tuple! {
            "id" => 3i64,
            "projects" => array![
                Value::Tuple(tuple! {"name" => "OLAP"}),
                Value::Null,
            ],
        });
        assert_eq!(v, expected);
    }

    #[test]
    fn duplicate_keys_are_preserved() {
        let v = from_json(r#"{"x": 1, "x": 2}"#).unwrap();
        let t = v.as_tuple().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("x"), Some(&Value::Int(1)));
    }

    #[test]
    fn string_escapes_and_unicode() {
        assert_eq!(
            from_json(r#""a\nb\tA""#).unwrap(),
            Value::Str("a\nb\tA".into())
        );
        // Surrogate pair: 😀
        assert_eq!(from_json(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(from_json("\"héllo\"").unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "tru",
            "01x",
            "{\"a\" 1}",
            "[1 2]",
            "",
            "1 2",
        ] {
            assert!(from_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn round_trips() {
        for src in [
            r#"{"id":3,"name":"Bob","title":null,"projects":["a","b"]}"#,
            "[1,2.5,true,null,\"x\"]",
            "{}",
            "[]",
        ] {
            let v = from_json(src).unwrap();
            assert_eq!(from_json(&to_json(&v)).unwrap(), v);
        }
    }

    #[test]
    fn bags_serialize_as_arrays_and_missing_is_skipped() {
        let v = Value::Bag(vec![Value::Int(1), Value::Missing, Value::Int(2)]);
        assert_eq!(to_json(&v), "[1,2]");
        assert_eq!(to_json(&Value::Missing), "null");
    }

    #[test]
    fn json_lines_loads_a_collection() {
        let v = from_json_lines("{\"a\":1}\n{\"a\":2}\n").unwrap();
        assert_eq!(v.as_elements().unwrap().len(), 2);
        assert!(matches!(v, Value::Bag(_)));
    }

    #[test]
    fn big_integers_fall_back_gracefully() {
        let v = from_json("99999999999999999999").unwrap();
        // Parsed exactly as a (large) decimal, not rounded through f64.
        assert_eq!(v, Value::Decimal("99999999999999999999".parse().unwrap()));
    }
}
