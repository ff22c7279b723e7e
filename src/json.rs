//! A minimal self-contained JSON reader/writer for the golden snapshot
//! files.
//!
//! The workspace uses no serialization library (the build is offline; see
//! `vendor/README.md`), so the conformance suite carries its own tiny JSON
//! layer: a [`Value`] tree, a pretty writer, and a recursive-descent
//! parser. Floats are written with Rust's shortest-roundtrip formatting
//! (`{:?}`), so `write → parse` restores every `f64` bit-for-bit — which
//! is what lets golden comparisons use exact or near-exact tolerances.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are kept sorted (BTreeMap) so output is canonical.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The array, if this is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array of numbers.
    pub fn nums(xs: impl IntoIterator<Item = f64>) -> Value {
        Value::Arr(xs.into_iter().map(Value::Num).collect())
    }

    /// Render as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(x) => {
                assert!(x.is_finite(), "JSON cannot carry {x}");
                // {:?} is Rust's shortest f64 representation that parses
                // back to the same bits.
                let _ = write!(out, "{x:?}");
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n{pad}  ");
                    item.write(out, indent + 1);
                }
                let _ = write!(out, "\n{pad}]");
            }
            Value::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                let _ = write!(out, "\n{pad}}}");
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']' , found {other:?}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: must pair with a following
                            // \uDC00..\uDFFF low surrogate (JSON encodes
                            // non-BMP characters as UTF-16 pairs).
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("unpaired high surrogate".into());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let hex = bytes.get(start..start + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_float_bits() {
        let v = Value::obj([
            ("name", Value::Str("syn-a".into())),
            ("budget", Value::Num(2.0)),
            ("objective", Value::Num(12.294_517_318_462_11)),
            ("tiny", Value::Num(3.9e-17)),
            ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
            (
                "thresholds",
                Value::nums([1.0, 0.1 + 0.2, f64::MIN_POSITIVE]),
            ),
        ]);
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(v, back);
        // Bit-exact float restoration, including the non-representable sum.
        let t = back.get("thresholds").unwrap().as_arr().unwrap();
        assert_eq!(t[1].as_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn parses_hand_written_json() {
        let v = Value::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Value::Num(-300.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\ny"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_chars() {
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Value::Str("\u{1F600}".into()));
        // Raw (unescaped) non-BMP text also survives.
        assert_eq!(
            Value::parse("\"😀\"").unwrap(),
            Value::Str("\u{1F600}".into())
        );
        // Unpaired or malformed surrogates are rejected, not mangled.
        assert!(Value::parse(r#""\ud83d""#).is_err());
        assert!(Value::parse(r#""\ud83dA""#).is_err());
        assert!(Value::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn escapes_are_symmetric() {
        let v = Value::Str("quote \" slash \\ newline \n tab \t".into());
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn all_short_escape_forms_round_trip() {
        // Every two-character escape of RFC 8259, plus a sub-0x20 control
        // that has no short form and must stay \u-encoded.
        let v = Value::Str("\" \\ / \n \t \r \u{0008} \u{000C} \u{0001}".into());
        let text = v.render();
        assert_eq!(Value::parse(&text).unwrap(), v);
        assert!(text.contains("\\b"), "backspace renders short: {text}");
        assert!(text.contains("\\f"), "form feed renders short: {text}");
        assert!(text.contains("\\u0001"), "other controls stay \\u: {text}");
        assert!(!text.contains("\\u0008"), "no generic backspace: {text}");
        assert!(!text.contains("\\u000c"), "no generic form feed: {text}");
    }

    #[test]
    fn backspace_and_formfeed_escapes_parse() {
        // Hand-written \b and \f (valid JSON) must parse, in both the
        // short and the \u spellings, to the same string.
        let short = Value::parse(r#""a\bz\fq""#).unwrap();
        let long = Value::parse("\"a\\u0008z\\u000cq\"").unwrap();
        assert_eq!(short, Value::Str("a\u{0008}z\u{000C}q".into()));
        assert_eq!(short, long);
        // Unknown escapes are still rejected.
        assert!(Value::parse(r#""\x""#).is_err());
    }

    #[test]
    fn canonical_object_ordering() {
        let a = Value::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let b = Value::parse(r#"{"a": 2, "z": 1}"#).unwrap();
        assert_eq!(a.render(), b.render());
    }
}
