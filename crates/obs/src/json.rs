//! A minimal JSON value model, pull reader, and writer: the repository's one
//! JSON codec.
//!
//! The paper's evaluation workflow (§2.2.4) materialises every individual's
//! hyperparameters into a DeePMD `input.json` via template substitution and
//! reads training output back from disk. To keep that workflow a faithful,
//! self-contained artifact, this substrate ships its own small JSON
//! implementation instead of pulling a serialisation framework into the
//! training path (see DESIGN.md §5). It lives in this leaf crate so that
//! every layer writes through it — the trainer's `input.json`
//! (`dphpo_dnnp::json` re-exports it), the journal and status file, and the
//! telemetry exporters of this crate.
//!
//! There is one lexer, [`Reader`]: a borrowed, allocation-free pull decoder
//! over `&str`. Consumers that want a tree call [`Json::parse`] (which is
//! `Reader::value` plus a trailing-input check); consumers that want their
//! own structs — the experiment journal — pull fields straight out of the
//! reader and never build a tree.
//!
//! JSON has no literal for a non-finite number, so the writer spells one as
//! a string — `"NaN"`, `"inf"`, `"-inf"` — and a diverged loss still leaves
//! a valid document.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value. Objects use a `BTreeMap` so output ordering is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Nested lookup through objects, e.g. `at(&["learning_rate","start_lr"])`.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in path {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience constructor for objects.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Render on a single line with no whitespace — the framing used for
    /// JSONL artifacts such as the experiment journal, where one record
    /// must occupy exactly one line.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append the [`Json::to_compact`] rendering to `out`.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(v) => write_number(*v, out),
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// A stable 64-bit content hash (FNV-1a over the canonical rendering).
    ///
    /// Object keys are sorted (`BTreeMap`) and numbers render via Rust's
    /// shortest-round-trip formatting, so the hash depends only on the JSON
    /// *value*, never on insertion order or the process that produced it.
    /// The experiment journal stores this hash of the campaign
    /// configuration in its header and refuses to resume under a different
    /// configuration.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_string().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Parse a JSON document: [`Reader::value`] plus a check that nothing
    /// but whitespace follows it.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut reader = Reader::new(input);
        let v = reader.value()?;
        reader.end()?;
        Ok(v)
    }
}

/// Parse error with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    fn new(pos: usize, message: &str) -> Self {
        JsonError { pos, message: message.to_string() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting [`Reader`] accepts. The deepest document this
/// repository writes is about eight levels; the bound exists so that a
/// hostile or damaged file (`[[[[…`) is a [`JsonError`] at the offending
/// byte rather than a stack overflow in a recursive consumer.
pub const MAX_DEPTH: usize = 128;

/// A pull reader over JSON text: the repository's one JSON lexer.
///
/// It borrows its input and allocates nothing of its own — a string is
/// handed out as a slice of the input unless an escape forces a copy — so a
/// consumer can decode straight into its own structs:
///
/// ```
/// use dphpo_obs::json::Reader;
/// let mut r = Reader::new(r#"{"id":"a","xs":[1,2.5],"later":{"ignored":[true]}}"#);
/// let (mut id, mut xs) = (None, Vec::new());
/// r.begin_object()?;
/// while let Some(key) = r.next_key()? {
///     match &*key {
///         "id" => id = Some(r.str()?),
///         "xs" => {
///             r.begin_array()?;
///             while r.next_element()? {
///                 xs.push(r.f64()?);
///             }
///         }
///         _ => r.skip()?,
///     }
/// }
/// r.end()?;
/// assert_eq!((id.as_deref(), xs), (Some("a"), vec![1.0, 2.5]));
/// # Ok::<(), dphpo_obs::json::JsonError>(())
/// ```
///
/// Every byte the reader passes over is syntax-checked, [`Reader::skip`]
/// included; a method that fails reports the byte it gave up at, and one
/// that finds a value of another kind consumes nothing. Numbers are always
/// finite: a literal that overflows `f64` (`1e999`) is an error, not an
/// infinity. The reader does not enforce call order — a value method
/// called where a key is due simply fails on the input it finds.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// Set by `begin_*`, cleared by the first `next_*`: no comma precedes
    /// a container's first member.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader { src, pos: 0, depth: 0, fresh: false }
    }

    /// Byte offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn fail<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError::new(self.pos, message))
    }

    /// The first byte of the next value (whitespace skipped), which names
    /// its kind: `{`, `[`, `"`, `n`, `t`, `f`, `-` or a digit.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Succeeds when only whitespace remains.
    pub fn end(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.fail("trailing characters"),
        }
    }

    fn open(&mut self, bracket: u8, expected: &str) -> Result<(), JsonError> {
        if self.peek() != Some(bracket) {
            return self.fail(expected);
        }
        if self.depth == MAX_DEPTH {
            return self.fail(&format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// After a member: `true` past a comma (or at a fresh container's first
    /// member), `false` past the closing bracket.
    fn more(&mut self, close: u8, expected: &str) -> Result<bool, JsonError> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if fresh => Ok(true),
            _ => self.fail(expected),
        }
    }

    /// Consume the `{` that opens an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', "expected '{'")
    }

    /// The next member's key, positioned at its value — or `None` once the
    /// object's `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        let key = self.str()?;
        if self.peek() != Some(b':') {
            return self.fail("expected ':'");
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Consume the `[` that opens an array.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', "expected '['")
    }

    /// `true` when another element follows (positioned at it), `false` once
    /// the array's `]` is consumed.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.more(b']', "expected ',' or ']'")
    }

    /// Consume `null` if that is the next value; otherwise consume nothing
    /// and return `false`.
    pub fn null(&mut self) -> Result<bool, JsonError> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.fail(&format!("expected '{lit}'"))
        }
    }

    /// Read a number. The result is always finite.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        let start = match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.pos,
            _ => return self.fail("expected a number"),
        };
        // The literal runs to the first byte no number contains — a valid
        // one is followed by whitespace, `,`, `]`, `}` or the end — and
        // `str::parse` decides whether it is one. (Of what it accepts, only
        // the forms that start like a JSON number can get here; `1.` and
        // `01` among them, as ever.)
        let rest = &self.src.as_bytes()[start..];
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
            .unwrap_or(rest.len());
        match self.src[start..start + len].parse::<f64>() {
            Ok(v) if v.is_finite() => {
                self.pos = start + len;
                Ok(v)
            }
            Ok(_) => self.fail("number out of range"),
            Err(_) => self.fail("invalid number"),
        }
    }

    /// Read a string: a slice of the input when it holds no escape, an
    /// owned copy only when one forces it.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return self.fail("expected '\"'");
        }
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            // A run of plain bytes ends at `"` or `\\` — ASCII, so both ends
            // of the slice are char boundaries.
            let run = self.pos;
            match bytes[run..].iter().position(|&b| b == b'"' || b == b'\\') {
                None => {
                    self.pos = bytes.len();
                    return self.fail("unterminated string");
                }
                Some(n) => self.pos += n,
            }
            let plain = &self.src[run..self.pos];
            self.pos += 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut s) => {
                        s.push_str(plain);
                        Cow::Owned(s)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(plain);
            let Some(esc) = self.byte() else {
                return self.fail("unterminated escape");
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{0008}',
                b'f' => '\u{000C}',
                b'u' => {
                    let code = self
                        .src
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                    let Some(code) = code else {
                        return self.fail("bad \\u escape");
                    };
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                _ => return self.fail("unknown escape"),
            });
        }
    }

    /// Pass over one value of any kind, checking its syntax exactly as
    /// [`Reader::value`] would, without building it.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'"') => self.str().map(drop),
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'-' | b'0'..=b'9') => self.f64().map(drop),
            _ => self.fail("unexpected character"),
        }
    }

    /// Read one value of any kind as a [`Json`] tree. A repeated object key
    /// keeps its last value.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.begin_object()?;
                while let Some(key) = self.next_key()? {
                    map.insert(key.into_owned(), self.value()?);
                }
                Ok(Json::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.begin_array()?;
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::String(self.str()?.into_owned())),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.f64().map(Json::Number),
            _ => self.fail("unexpected character"),
        }
    }
}

fn write_number(v: f64, out: &mut String) {
    // Writing into a `String` cannot fail. A non-finite value is quoted:
    // `"NaN"`, `"inf"`, `"-inf"`.
    let _ = if !v.is_finite() {
        write!(out, "\"{v}\"")
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        f.write_str(&out)
    }
}

impl Json {
    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        let pad_in = "    ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(v) => write_number(*v, out),
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.5e-2").unwrap(), Json::Number(-0.035));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"learning_rate": {"start_lr": 0.001, "stop_lr": 3.51e-8},
                      "training": {"numb_steps": 40000},
                      "tags": ["a", "b"], "flag": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.at(&["learning_rate", "start_lr"]).unwrap().as_f64(), Some(0.001));
        assert_eq!(v.at(&["training", "numb_steps"]).unwrap().as_f64(), Some(40000.0));
        assert_eq!(
            v.get("tags").unwrap(),
            &Json::Array(vec![Json::String("a".into()), Json::String("b".into())])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::String("a\"b\\c\nd\te\u{1}".into());
        let text = v.to_string();
        assert_eq!(text, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escape() {
        assert_eq!(Json::parse(r#""å""#).unwrap(), Json::String("å".into()));
    }

    #[test]
    fn round_trips_pretty_output() {
        let v = Json::object(vec![
            ("model", Json::object(vec![
                ("rcut", Json::Number(9.5)),
                ("rcut_smth", Json::Number(2.42)),
                ("activation_function", Json::String("tanh".into())),
            ])),
            ("steps", Json::Number(40000.0)),
            ("empty_list", Json::Array(vec![])),
            ("nothing", Json::Null),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn error_reports_position() {
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.pos, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Number(40000.0).to_string(), "40000");
        assert_eq!(Json::Number(0.01).to_string(), "0.01");
        assert_eq!(Json::Number(1e16).to_string(), "10000000000000000");
    }

    #[test]
    fn non_finite_numbers_render_as_strings() {
        let v = Json::Array([f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(Json::Number).into());
        assert_eq!(v.to_compact(), r#"["NaN","inf","-inf"]"#);
    }

    #[test]
    fn compact_rendering_is_single_line_and_round_trips() {
        let v = Json::object(vec![
            ("a", Json::Array(vec![Json::Number(1.0), Json::Null, Json::Bool(false)])),
            ("s", Json::String("line\nbreak".into())),
            ("n", Json::Number(0.0016)),
        ]);
        let compact = v.to_compact();
        assert!(!compact.contains('\n'), "compact output must be one line: {compact}");
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn stable_hash_tracks_value_not_construction_order() {
        let a = Json::object(vec![("x", Json::Number(1.0)), ("y", Json::Bool(true))]);
        let b = Json::object(vec![("y", Json::Bool(true)), ("x", Json::Number(1.0))]);
        assert_eq!(a.stable_hash(), b.stable_hash());
        let c = Json::object(vec![("x", Json::Number(2.0)), ("y", Json::Bool(true))]);
        assert_ne!(a.stable_hash(), c.stable_hash());
        // Survives a serialisation round trip.
        assert_eq!(Json::parse(&a.to_string()).unwrap().stable_hash(), a.stable_hash());
    }
}
