//! Dependency-free JSON support: a string-escaping writer helper, the
//! [`JsonObject`] builder and a small recursive-descent parser.
//!
//! The workspace has no serde. Telemetry lines — the [`crate::TraceWriter`]
//! event lines, the [`crate::RunReport`] JSON line and the server's
//! responses — are built with [`JsonObject`] (nested arrays and objects
//! spliced in with [`JsonObject::raw`]), and [`JsonValue::parse`] is the
//! matching reader, so traces and reports are *round-tripped* by tests
//! and tooling rather than grepped.

use core::fmt;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes an `f64` the way JSON expects: no `NaN`/`inf` literals
/// (mapped to `null`), integers without a trailing `.0`.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        out.push_str(&format!("{}", x as i64));
    } else {
        out.push_str(&format!("{x}"));
    }
}

/// A chainable single-object JSON writer: keys land in call order,
/// commas and escaping are handled, and `finish` yields the closed
/// document. This replaces hand-concatenated `format!` response
/// building (where a forgotten comma or an unescaped tenant name is a
/// protocol bug) with one audited code path.
///
/// ```
/// use joinopt_telemetry::json::JsonObject;
/// let line = JsonObject::new()
///     .str("verb", "health")
///     .str("status", "ok")
///     .u64("uptime_s", 42)
///     .finish();
/// assert_eq!(line, "{\"verb\":\"health\",\"status\":\"ok\",\"uptime_s\":42}");
/// ```
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        write_escaped(&mut self.buf, value);
        self
    }

    /// Adds a string field only when `value` is `Some`.
    pub fn opt_str(self, key: &str, value: Option<&str>) -> JsonObject {
        match value {
            Some(v) => self.str(key, v),
            None => self,
        }
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> JsonObject {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field ([`write_f64`] conventions: no `NaN`/`inf`).
    pub fn f64(mut self, key: &str, value: f64) -> JsonObject {
        self.key(key);
        write_f64(&mut self.buf, value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> JsonObject {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Splices a pre-serialized JSON value (object, array, …) under
    /// `key`. The caller vouches that `value` is valid JSON.
    pub fn raw(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Closes the object and returns the document.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A JSON array of pre-serialized values, for [`JsonObject::raw`].
pub(crate) fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (keys are not deduplicated).
    Object(Vec<(String, JsonValue)>),
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The
/// parser recurses once per level, so without a cap one line of `[`s
/// would overflow the stack of whichever thread parses it.
pub const MAX_DEPTH: usize = 128;

impl JsonValue {
    /// Parses a complete JSON document (rejects trailing garbage and
    /// nesting deeper than [`MAX_DEPTH`]).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (first occurrence); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(x) if *x >= 0.0 && *x == x.trunc() => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(xs) => Some(xs),
            _ => None,
        }
    }
}

/// A JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Parser<'a>) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output (we never escape above U+001F), but
                            // reject rather than mangle them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the maximal run of ordinary bytes in one go.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError {
                pos: start,
                message: format!("bad number '{text}'"),
            })
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
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
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_hostile_strings() {
        let tenant = "acme \"west\"\\2\n\tmünchen\u{1}";
        let message = "line1\r\nline2 with \"quotes\" and \\slashes\\";
        let doc = JsonObject::new()
            .str("verb", "optimize")
            .str("tenant", tenant)
            .str("message", message)
            .u64("retry_after_ms", 50)
            .f64("cost", 1.25)
            .f64("nan", f64::NAN)
            .bool("cache_hit", false)
            .opt_str("id", None)
            .opt_str("trace_id", Some("t-1"))
            .raw("spans", "[1,2,3]")
            .finish();
        let parsed = JsonValue::parse(&doc).unwrap();
        assert_eq!(parsed.get("tenant").unwrap().as_str(), Some(tenant));
        assert_eq!(parsed.get("message").unwrap().as_str(), Some(message));
        assert_eq!(parsed.get("retry_after_ms").unwrap().as_u64(), Some(50));
        assert_eq!(parsed.get("cost").unwrap().as_f64(), Some(1.25));
        assert_eq!(parsed.get("nan").unwrap(), &JsonValue::Null);
        assert_eq!(parsed.get("cache_hit").unwrap().as_bool(), Some(false));
        assert!(parsed.get("id").is_none());
        assert_eq!(parsed.get("trace_id").unwrap().as_str(), Some("t-1"));
        assert_eq!(parsed.get("spans").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(JsonValue::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(JsonValue::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, 2, {"b": "c"}], "d": null}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escape_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let mut out = String::new();
        write_escaped(&mut out, nasty);
        let back = JsonValue::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn f64_formatting() {
        let mut out = String::new();
        write_f64(&mut out, 3.0);
        assert_eq!(out, "3");
        out.clear();
        write_f64(&mut out, 3.25);
        assert_eq!(out, "3.25");
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(
            JsonValue::parse("1 2").is_err(),
            "trailing garbage must be rejected"
        );
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&deep(MAX_DEPTH)).is_ok());
        let e = JsonValue::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.pos, MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objects).is_err());
        // One hostile line: without the cap this overflows the stack
        // and aborts the process.
        assert!(JsonValue::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn error_reports_position() {
        let e = JsonValue::parse("[1, x]").unwrap_err();
        assert_eq!(e.pos, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = JsonValue::parse("  { \"a\" :\t[ ] , \"b\" : { } }\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 0);
        assert!(matches!(v.get("b"), Some(JsonValue::Object(f)) if f.is_empty()));
    }

    #[test]
    fn unicode_escape() {
        assert_eq!(JsonValue::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert!(JsonValue::parse(r#""\ud800""#).is_err());
    }
}
