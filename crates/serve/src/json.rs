//! A minimal, dependency-free JSON reader for the wire protocol.
//!
//! The emitting side of the repo hand-rolls its JSON (escaping strings
//! with [`scc_isa::json::escape`]); this is the matching consuming side. It
//! parses one complete document into a [`Json`] tree with a bounded
//! nesting depth, so a malicious frame can neither overflow the stack
//! nor smuggle trailing garbage.

/// Maximum nesting depth a frame may use. Requests are flat objects;
/// anything deeper is an attack or a bug.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers above 2^53 lose precision — the
    /// protocol's numeric fields are all well below that).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (no trailing data allowed).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number with an exact non-negative integral value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload as a signed integer, if exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9e15 => Some(*n as i64),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object(b, i, depth),
        Some(b'[') => array(b, i, depth),
        Some(b'"') => Ok(Json::Str(string(b, i)?)),
        Some(b't') => literal(b, i, "true", Json::Bool(true)),
        Some(b'f') => literal(b, i, "false", Json::Bool(false)),
        Some(b'n') => literal(b, i, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, i)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn literal(b: &[u8], i: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn object(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // consume `{`
    let mut fields = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i}"));
        }
        let key = string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected `:` at byte {i}"));
        }
        *i += 1;
        let v = value(b, i, depth + 1)?;
        fields.push((key, v));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // consume `[`
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, i, depth + 1)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {i}")),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
    *i += 1; // consume opening quote
    let mut out = String::new();
    loop {
        match b.get(*i) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *i += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *i += 1;
                        let cp = hex4(b, i)?;
                        // Surrogate pair: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let c = if (0xd800..0xdc00).contains(&cp) {
                            if b.get(*i) == Some(&b'\\') && b.get(*i + 1) == Some(&b'u') {
                                *i += 2;
                                let lo = hex4(b, i)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                return Err("lone high surrogate".to_string());
                            }
                        } else {
                            cp
                        };
                        match char::from_u32(c) {
                            Some(c) => out.push(c),
                            None => return Err(format!("invalid code point {c:#x}")),
                        }
                        continue; // hex4 advanced past the digits
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
                *i += 1;
            }
            Some(&c) if c < 0x20 => return Err(format!("raw control byte at {i}")),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a valid &str).
                let s = std::str::from_utf8(&b[*i..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *i += c.len_utf8();
            }
        }
    }
}

fn hex4(b: &[u8], i: &mut usize) -> Result<u32, String> {
    if *i + 4 > b.len() {
        return Err("truncated \\u escape".to_string());
    }
    let s = std::str::from_utf8(&b[*i..*i + 4]).map_err(|e| e.to_string())?;
    let v = u32::from_str_radix(s, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
    *i += 4;
    Ok(v)
}

fn number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len() && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *i += 1;
    }
    let s = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    s.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{s}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_isa::json::escape;

    #[test]
    fn parses_a_request_shaped_object() {
        let j = Json::parse(
            r#"{"verb":"run","workload":"freqmine","iters":800,"audit":false,"deadline_ms":250.0}"#,
        )
        .unwrap();
        assert_eq!(j.get("verb").and_then(Json::as_str), Some("run"));
        assert_eq!(j.get("iters").and_then(Json::as_i64), Some(800));
        assert_eq!(j.get("audit").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn parses_nesting_strings_and_numbers() {
        let j = Json::parse(r#"{"a":[1,-2.5,"x\n\"y\"",null,true],"b":{"c":[]}}"#).unwrap();
        match j.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].as_f64(), Some(-2.5));
                assert_eq!(items[2].as_str(), Some("x\n\"y\""));
                assert_eq!(items[3], Json::Null);
                assert_eq!(items[4].as_bool(), Some(true));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        let j = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(j.as_str(), Some("é😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
        assert!(Json::parse(r#""\uZZZZ""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{'a':1}"#,
            "[1,2",
            "nul",
            r#"{"a":1} trailing"#,
            "\u{1}",
            r#""unterminated"#,
        ] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn integer_bounds() {
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_i64(), Some(-1));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(nasty));
    }
}
