//! A minimal JSON reader and writer for the benchmark documents.
//!
//! The workspace is offline and carries no serde, and the only JSON the
//! tooling handles is its own benchmark documents (`BENCH_fault_sim.json`,
//! `BENCH_power_engine.json`). The benchmark sections build a
//! [`JsonValue`] and write it through its `Display` impl; `bench_check`
//! reads the files back with [`parse`], a small recursive-descent parser
//! over exactly the subset the writer emits: objects, arrays, strings (no
//! escapes beyond `\"` and `\\`), numbers, booleans and `null`. Parsing
//! a written value gives back the same value.

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`parse`] accepts. The writers
/// nest three levels; the cap keeps a hostile file from overflowing the
/// stack of the recursive parser.
const MAX_DEPTH: usize = 64;

/// A JSON value: what [`parse`] returns and what the benchmark sections
/// build.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with `members` in the given order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, JsonValue)>) -> Self {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Member of an object by key, or `None` for other values / missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(value) => Some(value),
            _ => None,
        }
    }
}

#[cfg(test)]
impl JsonValue {
    /// An object's keys in order, empty for other values: what the schema
    /// tests compare with the committed baselines.
    pub(crate) fn keys(&self) -> Vec<&str> {
        match self {
            JsonValue::Object(members) => members.iter().map(|(key, _)| key.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The entry of a document's `sizes` array with `rows` rows.
    pub(crate) fn size_entry(&self, rows: u32) -> &JsonValue {
        self.get("sizes")
            .and_then(JsonValue::as_array)
            .and_then(|sizes| {
                sizes.iter().find(|entry| {
                    entry.get("rows").and_then(JsonValue::as_f64) == Some(f64::from(rows))
                })
            })
            .expect("a sizes entry with these rows")
    }

    /// Asserts that every gated metric of an object (`*_per_sec`,
    /// `speedup_*`) is a positive number.
    pub(crate) fn assert_positive_rates(&self) {
        for key in self.keys() {
            if key.ends_with("_per_sec") || key.starts_with("speedup_") {
                let value = self[key].as_f64();
                assert!(value.is_some_and(|value| value > 0.0), "{key}: {value:?}");
            }
        }
    }
}

#[cfg(test)]
impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;

    /// The member `key` of an object; panics, naming it, when it is absent.
    fn index(&self, key: &str) -> &JsonValue {
        self.get(key)
            .unwrap_or_else(|| panic!("no member {key:?} in {self}"))
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Number(value)
    }
}

macro_rules! json_from_count {
    ($($count:ty),*) => {$(
        impl From<$count> for JsonValue {
            /// The count as a JSON number, exact up to 2^53.
            fn from(value: $count) -> Self {
                JsonValue::Number(value as f64)
            }
        }
    )*};
}

json_from_count!(u32, u64, usize);

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        JsonValue::Bool(value)
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::String(value.to_string())
    }
}

impl fmt::Display for JsonValue {
    /// Writes the value as indented JSON: two spaces per level, one array
    /// element or object member per line. Numbers take Rust's shortest
    /// form that parses back to the same `f64`; a non-finite number, which
    /// JSON cannot hold, is written as `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0)
    }
}

fn write_value(f: &mut fmt::Formatter<'_>, value: &JsonValue, depth: usize) -> fmt::Result {
    match value {
        JsonValue::Null => f.write_str("null"),
        JsonValue::Bool(flag) => write!(f, "{flag}"),
        JsonValue::Number(number) if number.is_finite() => write!(f, "{number}"),
        JsonValue::Number(_) => f.write_str("null"),
        JsonValue::String(text) => write_string(f, text),
        JsonValue::Array(items) => {
            write_block(f, depth, ('[', ']'), items.iter().map(|item| (None, item)))
        }
        JsonValue::Object(members) => write_block(
            f,
            depth,
            ('{', '}'),
            members
                .iter()
                .map(|(key, value)| (Some(key.as_str()), value)),
        ),
    }
}

/// Writes a container between `open` and `close`, one member per line,
/// each preceded by its key if it has one.
fn write_block<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a JsonValue)>,
) -> fmt::Result {
    f.write_char(open)?;
    let mut separator = "";
    for (key, value) in members {
        write!(f, "{separator}\n{:indent$}", "", indent = 2 * (depth + 1))?;
        if let Some(key) = key {
            write_string(f, key)?;
            f.write_str(": ")?;
        }
        write_value(f, value, depth + 1)?;
        separator = ",";
    }
    if !separator.is_empty() {
        write!(f, "\n{:indent$}", "", indent = 2 * depth)?;
    }
    f.write_char(close)
}

/// Writes `text` as a string literal, escaping the two characters
/// [`parse`] unescapes.
fn write_string(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_char('"')?;
    for character in text.chars() {
        if matches!(character, '"' | '\\') {
            f.write_char('\\')?;
        }
        f.write_char(character)?;
    }
    f.write_char('"')
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message (with byte offset) on malformed
/// input, including arrays and objects nested more than 64 deep.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_whitespace(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_whitespace(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_whitespace(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    // Bytes are collected raw and decoded once: the input is a valid
    // `&str` and the delimiters are ASCII, so multi-byte UTF-8 sequences
    // pass through intact.
    let mut out = Vec::new();
    while let Some(&byte) = bytes.get(*pos) {
        *pos += 1;
        match byte {
            b'"' => {
                return String::from_utf8(out).map_err(|e| format!("invalid UTF-8: {e}"));
            }
            b'\\' => match bytes.get(*pos) {
                Some(&b'"') => {
                    out.push(b'"');
                    *pos += 1;
                }
                Some(&b'\\') => {
                    out.push(b'\\');
                    *pos += 1;
                }
                _ => return Err(format!("unsupported escape at byte {}", *pos)),
            },
            _ => out.push(byte),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while let Some(&byte) = bytes.get(*pos) {
        if byte.is_ascii_digit() || matches!(byte, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_benchmark_shape() {
        let doc = r#"{
  "benchmark": "power_engine",
  "passes": 2,
  "negative": -1.5e-3,
  "flag": true,
  "nothing": null,
  "sizes": [
    { "rows": 64, "cols": 64, "speedup": 12.5 },
    { "rows": 512, "cols": 512, "speedup": 50.0 }
  ]
}"#;
        let value = parse(doc).unwrap();
        assert_eq!(
            value.get("benchmark").unwrap().as_str(),
            Some("power_engine")
        );
        assert_eq!(value.get("passes").unwrap().as_f64(), Some(2.0));
        assert_eq!(value.get("negative").unwrap().as_f64(), Some(-1.5e-3));
        assert_eq!(value.get("flag"), Some(&JsonValue::Bool(true)));
        assert_eq!(value.get("nothing"), Some(&JsonValue::Null));
        let sizes = value.get("sizes").unwrap().as_array().unwrap();
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes[1].get("speedup").unwrap().as_f64(), Some(50.0));
        assert_eq!(sizes[0].get("missing"), None);
    }

    #[test]
    fn non_ascii_strings_survive_round_trip() {
        let value = parse("{\"name\": \"March ⇑⇓ — 0.13 µm\"}").unwrap();
        assert_eq!(
            value.get("name").unwrap().as_str(),
            Some("March ⇑⇓ — 0.13 µm")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 12x3}").is_err());
    }

    #[test]
    fn parses_what_it_writes() {
        let doc = JsonValue::object([
            ("nothing", JsonValue::Null),
            ("yes", true.into()),
            ("no", false.into()),
            ("count", 155_189_248u64.into()),
            ("rate", 4_796_197.634_512_7.into()),
            ("ratio", (2.0f64 / 3.0).into()),
            ("negative", (-1.5e-3).into()),
            ("tiny", 5e-324.into()),
            ("huge", 1.7e308.into()),
            ("quoted", "say \"March \\ C-\" — ⇑⇓".into()),
            (
                "names",
                JsonValue::Array(vec!["March C-".into(), "MATS+".into()]),
            ),
            ("empty_array", JsonValue::Array(vec![])),
            ("empty_object", JsonValue::object([])),
            (
                "sizes",
                JsonValue::Array(vec![
                    JsonValue::object([("rows", 64u32.into()), ("cols", 64u32.into())]),
                    JsonValue::Array(vec![JsonValue::Array(vec![1u32.into()])]),
                ]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text), Ok(doc), "{text}");
        assert!(text.contains("\"count\": 155189248,"), "{text}");
        // JSON has no NaN or infinity.
        let non_finite = JsonValue::Array(vec![f64::NAN.into(), f64::INFINITY.into()]);
        let nulls = JsonValue::Array(vec![JsonValue::Null, JsonValue::Null]);
        assert_eq!(parse(&non_finite.to_string()), Ok(nulls));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let error = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(error.contains("at byte 64"), "{error}");
        assert!(parse(&"{\"a\": ".repeat(100_000)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }
}
