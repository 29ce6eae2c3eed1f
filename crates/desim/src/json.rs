//! A dependency-free JSON value and emitter for machine-readable run
//! reports.
//!
//! The workspace has no serialization framework, so report emission is
//! explicit: build a [`Json`] tree and [`dump`](Json::dump) or
//! [`pretty`](Json::pretty) it. The builder
//! surface is deliberately tiny — reports are flat objects of numbers,
//! strings and arrays.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any integer (covers `u64` exactly).
    Int(i128),
    /// A float; non-finite values emit as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v as i128)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i128)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v as i128)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }

    /// Build an array of unsigned counters.
    pub fn uint_array(values: &[u64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
    }

    /// Append a key to an object. Panics on a non-object: pushing a key
    /// onto an array or a scalar is a report-building bug.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Look up a key in an object (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of an `Int` or `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer value of an `Int` (or an integral `Num`).
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e18 => Some(*n as i128),
            _ => None,
        }
    }

    /// The string value of a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse JSON text (strict; the full value must consume the input).
    ///
    /// This is the reverse of [`dump`](Json::dump)/[`pretty`](Json::pretty)
    /// and exists so tools can *validate* what the emitters wrote — e.g.
    /// the Chrome trace smoke check — without an external parser.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Compact single-line serialization.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space-indented serialization.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 always round-trips and never produces
                    // bare exponents JSON parsers reject.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{n:.1}");
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, depth + 1);
                });
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by `dump`;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // The unescaped run up to the next quote or backslash
                    // (neither byte occurs inside a multi-byte scalar),
                    // validated once: per character it was quadratic.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(run.map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Never fires: the scan above consumed ASCII bytes only.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "Json::push on non-object")]
    fn push_on_a_non_object_panics() {
        Json::Arr(Vec::new()).push("k", 1u64);
    }

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.dump(), "null");
        assert_eq!(Json::from(true).dump(), "true");
        assert_eq!(Json::from(42u64).dump(), "42");
        assert_eq!(Json::from(-7i64).dump(), "-7");
        assert_eq!(Json::from(2.5).dump(), "2.5");
        assert_eq!(Json::from(3.0).dump(), "3.0");
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::from(u64::MAX).dump(), u64::MAX.to_string());
    }

    #[test]
    fn string_escaping() {
        assert_eq!(Json::from("a\"b\\c\nd\u{1}").dump(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn compact_object_and_array() {
        let j = Json::obj([
            ("name", Json::from("hop0")),
            ("in", Json::from(10u64)),
            ("rates", Json::from(vec![1.5, 2.0])),
        ]);
        assert_eq!(j.dump(), r#"{"name":"hop0","in":10,"rates":[1.5,2.0]}"#);
    }

    #[test]
    fn pretty_indents() {
        let j = Json::obj([("a", Json::from(1u64)), ("b", Json::Arr(vec![]))]);
        assert_eq!(j.pretty(), "{\n  \"a\": 1,\n  \"b\": []\n}");
    }

    #[test]
    fn push_extends_objects() {
        let mut j = Json::obj([("a", 1u64)]);
        j.push("b", 2u64);
        assert_eq!(j.dump(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let doc = Json::obj([
            ("name", Json::from("hop\"0\n µs→\\ü")),
            ("n", Json::from(-3i64)),
            ("x", Json::from(2.5)),
            ("whole", Json::from(4.0)),
            ("flag", Json::from(true)),
            ("nothing", Json::Null),
            ("seq", Json::Arr(vec![Json::from(1u64), Json::Obj(vec![]), Json::Arr(vec![])])),
        ]);
        for text in [doc.dump(), doc.pretty()] {
            let back = Json::parse(&text).expect("parses");
            // Num(4.0) survives as a float thanks to the ".0" suffix.
            assert_eq!(back, doc, "{text}");
        }
    }

    /// Trace-sized: minutes while each character re-validated the rest.
    #[test]
    fn parse_time_is_linear_in_the_document() {
        let doc = Json::Arr((0..50_000).map(|i| Json::from(format!("span {i} µs"))).collect());
        assert_eq!(Json::parse(&doc.dump()).expect("parses"), doc);
    }

    #[test]
    fn parse_accepts_standard_json() {
        let j = Json::parse(r#" { "a" : [ 1 , 2.5e1 , "uA" ] , "b" : null } "#).expect("ok");
        assert_eq!(j.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(25.0));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("uA"));
        assert!(j.get("b").is_some());
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "[1] x", "tru", "\"abc", "{1:2}", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Json::from(3u64).as_f64(), Some(3.0));
        assert_eq!(Json::from(3.5).as_i128(), None);
        assert_eq!(Json::from(3.0).as_i128(), Some(3));
        assert_eq!(Json::from("s").as_str(), Some("s"));
        assert_eq!(Json::Null.as_f64(), None);
    }
}
