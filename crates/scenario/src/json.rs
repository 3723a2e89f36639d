//! A strict, dependency-free JSON codec for scenario specs.
//!
//! The same philosophy as the audit JSONL layer (`wakeup_sim::audit`): the
//! writer emits exactly one canonical byte form, and the parser accepts
//! standard JSON but rejects everything a hand-edited spec could silently
//! get wrong — duplicate keys, trailing garbage, malformed escapes, numbers
//! that lose precision. Parsing then canonically re-serializing is the
//! identity on canonical input, which is what lets the corpus be checked in
//! and byte-diffed.
//!
//! Numbers are carried as `f64` with one canonical rendering: integral
//! values inside the 2⁵³ exact range print without a fraction (`2`, not
//! `2.0`), everything else uses Rust's shortest round-trip float display.
//! Spec validation separately rejects fields whose values cannot be exact
//! (seeds above 2³², say), so no scenario parameter ever passes through a
//! lossy representation.
//!
//! Nesting is capped at [`MAX_DEPTH`]: the parser is recursive descent, so
//! an unbounded `[[[[…` document would otherwise overflow the stack and
//! abort the process instead of returning an error.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. Scenario specs, obs
/// snapshots and `engine_perf` reports nest fewer than ten levels; the cap
/// only exists to turn hostile input into a [`JsonErrorKind::TooDeep`]
/// error well before the parser's recursion could exhaust a thread stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys keep their source order — the canonical
/// writer re-orders them per the spec schema, not here.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order, duplicates rejected at parse time.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// What class of failure a [`JsonError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input is not well-formed (or not canonical-safe) JSON.
    Syntax,
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Failure class.
    pub kind: JsonErrorKind,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            kind: JsonErrorKind::Syntax,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one nesting level deeper, failing with
    /// [`JsonErrorKind::TooDeep`] past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                offset: self.pos,
                kind: JsonErrorKind::TooDeep,
                detail: format!("nesting deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected literal {text:?}")))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    kind: JsonErrorKind::Syntax,
                    detail: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy a raw UTF-8 run (anything below a quote, backslash, or
            // control byte) in one slice.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so any byte run between structural
                // characters is valid UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8"));
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unfinished escape"))?;
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
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // A high surrogate must be followed by an
                                // escaped low surrogate.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape \\{}", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("unfinished \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone 0 or a nonzero-led digit run (JSON forbids
        // leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let value: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            kind: JsonErrorKind::Syntax,
            detail: format!("unparseable number {text:?}"),
        })?;
        if !value.is_finite() {
            return Err(JsonError {
                offset: start,
                kind: JsonErrorKind::Syntax,
                detail: format!("number {text:?} overflows f64"),
            });
        }
        Ok(Value::Num(value))
    }
}

/// Writes `value` in the canonical pretty form: two-space indentation,
/// one object field per line, arrays inline when every element is a scalar
/// and one-element-per-line otherwise, and a trailing newline. Key order is
/// whatever the `Value` carries — spec serialization builds values in
/// schema order before calling this.
pub fn canonical(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => write_num(out, *x),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => write_arr(out, items, indent),
        Value::Obj(fields) => write_obj(out, fields, indent),
    }
}

/// Exact integers print without a fraction; everything else uses the
/// shortest round-trip rendering.
fn write_num(out: &mut String, x: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if x.fract() == 0.0 && x.abs() < EXACT {
        out.push_str(&format!("{}", x as i64));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

fn is_scalar(v: &Value) -> bool {
    matches!(
        v,
        Value::Null | Value::Bool(_) | Value::Num(_) | Value::Str(_)
    )
}

fn write_arr(out: &mut String, items: &[Value], indent: usize) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    if items.iter().all(is_scalar) {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_value(out, item, indent);
        }
        out.push(']');
        return;
    }
    out.push_str("[\n");
    let pad = "  ".repeat(indent + 1);
    for (i, item) in items.iter().enumerate() {
        out.push_str(&pad);
        write_value(out, item, indent + 1);
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&"  ".repeat(indent));
    out.push(']');
}

fn write_obj(out: &mut String, fields: &[(String, Value)], indent: usize) {
    if fields.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let pad = "  ".repeat(indent + 1);
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(&pad);
        write_str(out, key);
        out.push_str(": ");
        write_value(out, value, indent + 1);
        if i + 1 < fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&"  ".repeat(indent));
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.25e2").unwrap(), Value::Num(-125.0));
        assert_eq!(parse("\"hé\\n\"").unwrap(), Value::Str("hé\n".into()));
    }

    #[test]
    fn rejects_duplicate_keys_and_trailing_garbage() {
        let err = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(err.detail.contains("duplicate key"), "{err}");
        let err = parse("{} x").unwrap_err();
        assert!(err.detail.contains("trailing"), "{err}");
        assert!(parse("01").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("\"\\q\"").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".into())
        );
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn canonical_is_stable_under_reparse() {
        let doc = "{\"b\": [1, 2.5, \"x\"], \"a\": {\"nested\": [[0, 1.25], [3, 2]]}}";
        let v = parse(doc).unwrap();
        let c1 = canonical(&v);
        let v2 = parse(&c1).unwrap();
        assert_eq!(v, v2);
        assert_eq!(canonical(&v2), c1);
    }

    #[test]
    fn integral_floats_print_as_integers() {
        let mut s = String::new();
        write_num(&mut s, 2.0);
        assert_eq!(s, "2");
        s.clear();
        write_num(&mut s, 1.25);
        assert_eq!(s, "1.25");
    }

    #[test]
    fn deep_array_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(50_000)).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep, "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn deep_object_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"{\"a\":".repeat(50_000)).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep, "{err}");
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&over).unwrap_err().kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn unicode_passes_through_raw() {
        let v = Value::Str("ρ_awk Θ(m) 𝒢ₖ".into());
        let c = canonical(&v);
        assert_eq!(c, "\"ρ_awk Θ(m) 𝒢ₖ\"\n");
        assert_eq!(parse(c.trim()).unwrap(), v);
    }
}
