//! JSONL export and a minimal JSON parser.
//!
//! The exporter writes one [`TraceEvent`] JSON object per line (the
//! serializer is hand-rolled in [`crate::event`]; there is no serde in
//! this workspace). The parser exists so tests — and downstream tools —
//! can validate traces without external crates; it supports the full
//! JSON grammar the exporter emits plus arrays/nesting for generality.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::str;

use crate::event::{json_escape, TraceEvent};

/// Renders events as JSONL text (one object per line, trailing newline).
pub fn render_events(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// Writes `contents` to `path`, creating its parent directories: the
/// one way the trace, metrics, benchmark and analysis files are written.
///
/// # Errors
///
/// The first I/O error from creating a directory or writing.
pub fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, contents)
}

/// Writes events as JSONL to `path`, creating parent directories.
pub fn write_events(path: &Path, events: &[TraceEvent]) -> io::Result<()> {
    write_file(path, render_events(events))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters"));
        }
        Ok(value)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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
}

/// Renders the value as compact JSON, which [`JsonValue::parse`] reads
/// back as an equal value. A number that is not finite has no JSON form
/// and renders as `null`.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Number(_) => f.write_str("null"),
            JsonValue::String(s) => write!(f, "\"{}\"", json_escape(s)),
            JsonValue::Array(items) => {
                let items: Vec<String> = items.iter().map(JsonValue::to_string).collect();
                write!(f, "[{}]", items.join(","))
            }
            JsonValue::Object(fields) => {
                let fields: Vec<String> = (fields.iter())
                    .map(|(key, value)| format!("\"{}\":{value}", json_escape(key)))
                    .collect();
                write!(f, "{{{}}}", fields.join(","))
            }
        }
    }
}

/// Parses JSONL text: one JSON document per non-empty line.
pub fn parse_jsonl(text: &str) -> Result<Vec<JsonValue>, JsonError> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(JsonValue::parse)
        .collect()
}

/// A parse failure, with a byte offset into the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8).
                    let rest = str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated"))?;
                    if (ch as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exporter_output() {
        let events = vec![
            TraceEvent::DemandDispatched {
                t: 0.0,
                demand: 1,
                releases: 2,
                mode: "parallel-reliability".into(),
            },
            TraceEvent::Adjudicated {
                t: 0.0,
                demand: 1,
                verdict: "CR".into(),
                source: None,
                responders: 2,
                response_time: 0.35,
            },
        ];
        let text = render_events(&events);
        let parsed = parse_jsonl(&text).expect("valid JSONL");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0].get("kind").and_then(JsonValue::as_str),
            Some("DemandDispatched")
        );
        assert_eq!(parsed[0].get("demand").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(parsed[1].get("source"), Some(&JsonValue::Null));
        assert_eq!(
            parsed[1].get("response_time").and_then(JsonValue::as_f64),
            Some(0.35)
        );
    }

    #[test]
    fn parses_nested_and_escapes() {
        let v = JsonValue::parse(r#"{"a":[1,2.5,-3e2],"b":"x\n\"y\" é","c":{"d":true}}"#)
            .expect("parse");
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-300.0)
            ]))
        );
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x\n\"y\" é"));
        assert_eq!(
            v.get("c")
                .and_then(|c| c.get("d"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn display_renders_what_parse_reads_back() {
        let value = JsonValue::Object(vec![
            (
                "a \"b\"\n".to_owned(),
                JsonValue::String("tab\there é 😀".to_owned()),
            ),
            (
                "list".to_owned(),
                JsonValue::Array(vec![
                    JsonValue::Number(1e6),
                    JsonValue::Number(-2.5e-7),
                    JsonValue::Null,
                    JsonValue::Bool(false),
                    JsonValue::Object(Vec::new()),
                ]),
            ),
        ]);
        let text = value.to_string();
        assert!(!text.contains('\n'), "compact: {text}");
        assert_eq!(JsonValue::parse(&text), Ok(value));
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = JsonValue::parse(r#""😀""#).expect("parse");
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("01x").is_err());
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn write_events_creates_directories() {
        let dir = std::env::temp_dir().join("wsu_obs_test_jsonl");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/trace.jsonl");
        let events = vec![TraceEvent::Timeout {
            t: 1.0,
            demand: 2,
            release: 0,
            timeout: 1.5,
        }];
        write_events(&path, &events).expect("write");
        let text = fs::read_to_string(&path).expect("read back");
        assert_eq!(parse_jsonl(&text).expect("parse").len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
