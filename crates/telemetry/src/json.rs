//! A minimal JSON value tree: writer *and* reader.
//!
//! The workspace has no serde, so every observability artifact that
//! leaves the process as JSON — the Chrome trace, the metrics snapshot
//! embedded in `propeller_cli run --out`, the doctor's `RunReport` —
//! goes through this module. The writer escapes per RFC 8259; the
//! reader accepts exactly what the writer produces (plus arbitrary
//! whitespace), so round-tripping is lossless for everything the
//! pipeline serializes.
//!
//! Object member order is preserved (members are a `Vec`, not a map):
//! diffs of two serialized reports stay stable and human-readable.
//!
//! Every persisted artifact's codec is written in one vocabulary from
//! here. Writing: `From<number | bool | string | Option<_>>` for
//! [`JsonValue`], [`obj`], [`arr`], [`num_entries`] and
//! [`JsonValue::with`] for members that are omitted when empty.
//! Reading: [`read_doc`] hands the parsed document to a [`Reader`],
//! whose accessors check what they narrow (an integer read rejects
//! fractions, negatives and values beyond the target type) and fail
//! with one [`SchemaError`] naming the member's path.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Arrays and objects may nest this deep; a document nesting deeper is
/// a syntax error rather than a parser stack overflow.
const MAX_DEPTH: usize = 128;

/// `v` as the integer it is, if it is one: non-negative, without a
/// fraction, and below `2^128` (where `as` would saturate).
fn uint_of(v: f64) -> Option<u128> {
    (v >= 0.0 && v.fract() == 0.0 && v < 2f64.powi(128)).then_some(v as u128)
}

/// A parsed or to-be-serialized JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; u64 counters round-trip
    /// exactly up to 2^53, far beyond any value the pipeline records).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in member order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a member of an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer
    /// below `2^64`. Integers above `2^53` lost their low bits when
    /// they were written; they still read back as what was written.
    pub fn as_u64(&self) -> Option<u64> {
        uint_of(self.as_f64()?).and_then(|n| u64::try_from(n).ok())
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Appends `key: value` to an object when there is a value — the
    /// spelling of a member that is omitted when empty or clean.
    pub fn with(mut self, key: &str, value: Option<JsonValue>) -> JsonValue {
        if let (JsonValue::Obj(members), Some(value)) = (&mut self, value) {
            members.push((key.to_string(), value));
        }
        self
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * depth),
                " ".repeat(w * (depth + 1)),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => out.push_str(&json_f64(*v)),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\":");
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message on malformed input (including
    /// trailing garbage after the top-level value).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
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
}

/// Convenience: an object value from `(key, value)` pairs.
pub fn obj(members: impl IntoIterator<Item = (impl Into<String>, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An array value: `f` of each item, in order.
pub fn arr<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> JsonValue) -> JsonValue {
    JsonValue::Arr(items.into_iter().map(f).collect())
}

/// An object of numbers from `(name, value)` pairs in the order given
/// — a ledger's `entries()`, or a name-keyed map of counters.
pub fn num_entries<K: Into<String>, V: Into<JsonValue>>(
    entries: impl IntoIterator<Item = (K, V)>,
) -> JsonValue {
    obj(entries.into_iter().map(|(k, v)| (k, v.into())))
}

macro_rules! json_num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            /// Integers above `2^53` round to the nearest `f64`.
            fn from(v: $t) -> JsonValue {
                JsonValue::Num(v as f64)
            }
        }
        impl From<&$t> for JsonValue {
            fn from(v: &$t) -> JsonValue {
                JsonValue::from(*v)
            }
        }
    )*};
}
json_num_from!(u32, u64, usize, u128);

impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Num(v)
    }
}

impl From<&f64> for JsonValue {
    fn from(v: &f64) -> JsonValue {
        JsonValue::Num(*v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> JsonValue {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// Why a text is not the artifact its reader expects. Paths read like
/// `run_report.layout[3].clusters[0].size`.
#[derive(Clone, PartialEq, Debug)]
pub enum SchemaError {
    /// Not a JSON document at all (cut off, garbled, nested too deep).
    Syntax(JsonError),
    /// A member its writer always emits is absent.
    Missing {
        /// The absent member.
        path: String,
    },
    /// A member is present but does not hold what it should.
    Expected {
        /// What should be there, with its article: `a string`.
        what: String,
        /// The offending member.
        path: String,
    },
}

impl SchemaError {
    fn expected(what: impl Into<String>) -> SchemaError {
        SchemaError::Expected {
            what: what.into(),
            path: String::new(),
        }
    }

    /// The same error seen from one level further out: `outer` is the
    /// member key or `[index]` the failing reader was entered through.
    fn within(mut self, outer: &str) -> SchemaError {
        if let SchemaError::Missing { path } | SchemaError::Expected { path, .. } = &mut self {
            let dot = if path.is_empty() || path.starts_with('[') {
                ""
            } else {
                "."
            };
            *path = format!("{outer}{dot}{path}");
        }
        self
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Syntax(e) => write!(f, "{e}"),
            SchemaError::Missing { path } => write!(f, "missing `{path}`"),
            SchemaError::Expected { what, path } => write!(f, "expected {what} at `{path}`"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Parses `text` and hands the document to `read`; `doc` names the
/// document at the root of error paths.
///
/// # Errors
///
/// A [`SchemaError::Syntax`] when `text` is not JSON, otherwise
/// whatever `read` objects to.
pub fn read_doc<T>(
    doc: &str,
    text: &str,
    read: impl FnOnce(Reader<'_>) -> Result<T, SchemaError>,
) -> Result<T, SchemaError> {
    let v = JsonValue::parse(text).map_err(SchemaError::Syntax)?;
    read(Reader(&v)).map_err(|e| e.within(doc))
}

/// A read cursor on one value of a parsed document. `to_*` read the
/// value itself; the keyed accessors read a member of it (which makes
/// it an object, or an error). Errors come back located: each level
/// they pass on the way out prepends its key or index.
#[derive(Copy, Clone, Debug)]
pub struct Reader<'a>(&'a JsonValue);

impl<'a> Reader<'a> {
    /// The string.
    pub fn to_str(self) -> Result<&'a str, SchemaError> {
        self.0.as_str().ok_or_else(|| SchemaError::expected("a string"))
    }

    /// The number.
    pub fn to_f64(self) -> Result<f64, SchemaError> {
        self.0.as_f64().ok_or_else(|| SchemaError::expected("a number"))
    }

    /// The boolean.
    pub fn to_bool(self) -> Result<bool, SchemaError> {
        match self.0 {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(SchemaError::expected("a boolean")),
        }
    }

    fn to_uint<T: TryFrom<u128> + std::fmt::Display>(self, max: T) -> Result<T, SchemaError> {
        self.0
            .as_f64()
            .and_then(uint_of)
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| SchemaError::expected(format!("an integer in 0..={max}")))
    }

    /// The number, when it is an integer a `u64` holds.
    pub fn to_u64(self) -> Result<u64, SchemaError> {
        self.to_uint(u64::MAX)
    }

    /// The number, when it is an integer a `u32` holds.
    pub fn to_u32(self) -> Result<u32, SchemaError> {
        self.to_uint(u32::MAX)
    }

    /// The number, when it is an integer a `usize` holds.
    pub fn to_usize(self) -> Result<usize, SchemaError> {
        self.to_uint(usize::MAX)
    }

    /// The number, when it is an integer a `u128` holds.
    pub fn to_u128(self) -> Result<u128, SchemaError> {
        self.to_uint(u128::MAX)
    }

    /// `read` of each array element, in order.
    pub fn to_arr<T>(
        self,
        mut read: impl FnMut(Reader<'a>) -> Result<T, SchemaError>,
    ) -> Result<Vec<T>, SchemaError> {
        let Some(items) = self.0.as_arr() else {
            return Err(SchemaError::expected("an array"));
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| read(Reader(item)).map_err(|e| e.within(&format!("[{i}]"))))
            .collect()
    }

    /// `read` of each member of an object keyed by free-form names
    /// (metric names, tenants), as the sorted map its writer iterated.
    pub fn to_map<T>(
        self,
        mut read: impl FnMut(Reader<'a>) -> Result<T, SchemaError>,
    ) -> Result<BTreeMap<String, T>, SchemaError> {
        self.members()?
            .iter()
            .map(|(k, v)| Ok((k.clone(), read(Reader(v)).map_err(|e| e.within(k))?)))
            .collect()
    }

    fn members(self) -> Result<&'a [(String, JsonValue)], SchemaError> {
        self.0.as_obj().ok_or_else(|| SchemaError::expected("an object"))
    }

    /// `read` of the member `key`, which must be present.
    pub fn get<T>(
        self,
        key: &str,
        read: impl FnOnce(Reader<'a>) -> Result<T, SchemaError>,
    ) -> Result<T, SchemaError> {
        self.opt(key, read)?.ok_or_else(|| SchemaError::Missing {
            path: key.to_string(),
        })
    }

    /// `read` of the member `key`, or `None` when it is absent or
    /// `null` — a member its writer omits when empty.
    pub fn opt<T>(
        self,
        key: &str,
        read: impl FnOnce(Reader<'a>) -> Result<T, SchemaError>,
    ) -> Result<Option<T>, SchemaError> {
        self.members()?;
        match self.0.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => read(Reader(v)).map(Some).map_err(|e| e.within(key)),
        }
    }

    /// The string member `key`.
    pub fn str(self, key: &str) -> Result<&'a str, SchemaError> {
        self.get(key, Reader::to_str)
    }

    /// The number member `key`.
    pub fn f64(self, key: &str) -> Result<f64, SchemaError> {
        self.get(key, Reader::to_f64)
    }

    /// The boolean member `key`.
    pub fn bool(self, key: &str) -> Result<bool, SchemaError> {
        self.get(key, Reader::to_bool)
    }

    /// The integer member `key`, checked as [`Reader::to_u64`] does.
    pub fn u64(self, key: &str) -> Result<u64, SchemaError> {
        self.get(key, Reader::to_u64)
    }

    /// The integer member `key`, checked as [`Reader::to_u32`] does.
    pub fn u32(self, key: &str) -> Result<u32, SchemaError> {
        self.get(key, Reader::to_u32)
    }

    /// The integer member `key`, checked as [`Reader::to_usize`] does.
    pub fn usize(self, key: &str) -> Result<usize, SchemaError> {
        self.get(key, Reader::to_usize)
    }

    /// `read` of each element of the array member `key`.
    pub fn arr<T>(
        self,
        key: &str,
        read: impl FnMut(Reader<'a>) -> Result<T, SchemaError>,
    ) -> Result<Vec<T>, SchemaError> {
        self.get(key, |a| a.to_arr(read))
    }

    /// The member `key` as what [`num_entries`] wrote: names to numbers.
    pub fn num_entries(self, key: &str) -> Result<BTreeMap<String, f64>, SchemaError> {
        self.get(key, |o| o.to_map(Reader::to_f64))
    }
}

/// A JSON parse error: byte offset plus message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b' ' | b'\t' | b'\n' | b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", *c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while let Some(&c) = self.bytes.get(self.pos) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            Ok(_) => Err(self.err(format!("number `{text}` is out of range"))),
            Err(_) => Err(self.err(format!("bad number `{text}`"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates (the writer never emits them as
                            // escapes) decode to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Copy one UTF-8 scalar, however many bytes.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("nonempty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }
}

/// Escapes `s` as the contents of a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; those
/// become 0 and a very large finite value respectively).
pub fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "1e308" } else { "-1e308" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = obj([
            ("name", JsonValue::Str("app \"pm\"\n".into())),
            ("n", JsonValue::Num(42.0)),
            ("frac", JsonValue::Num(-0.125)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "arr",
                JsonValue::Arr(vec![
                    JsonValue::Num(1.0),
                    obj([("k", JsonValue::Str("v".into()))]),
                    JsonValue::Arr(vec![]),
                ]),
            ),
            ("empty", JsonValue::Obj(vec![])),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn preserves_member_order() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = JsonValue::parse(text).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"s": "x", "n": 7, "a": [1]}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "\"abc", "{\"a\" 1}", "tru", "1 2", "{'a':1}",
            "[1]]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = JsonValue::parse(r#""a\"b\\c\nAé é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nAé é"));
    }

    #[test]
    fn number_forms() {
        for (text, want) in [
            ("0", 0.0),
            ("-12", -12.0),
            ("3.5", 3.5),
            ("1e3", 1000.0),
            ("2.5E-1", 0.25),
        ] {
            assert_eq!(JsonValue::parse(text).unwrap().as_f64(), Some(want));
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (MAX_DEPTH, "nesting deeper than 128"));
        // Used to overflow the stack and abort the process.
        let err = JsonValue::parse(&"[".repeat(50_000)).unwrap_err();
        assert_eq!(err.message, "nesting deeper than 128");
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        assert!(JsonValue::parse(&objects).unwrap_err().message.contains("nesting"));
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "[1, 2e400]"] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(err.message.contains("out of range"), "{bad}: {err}");
        }
        assert_eq!(JsonValue::parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    #[test]
    fn as_u64_refuses_to_narrow() {
        let n = |text| JsonValue::parse(text).unwrap().as_u64();
        assert_eq!(n("1.9"), None);
        assert_eq!(n("1e30"), None);
        assert_eq!(n("18446744073709551616"), None);
        assert_eq!(n("-0.5"), None);
        assert_eq!(n("0"), Some(0));
        assert_eq!(n("4294967296"), Some(1 << 32));
        // Above 2^53 the writer already rounded; the reader hands back
        // what was written.
        assert_eq!(n("9007199254740993"), Some(9_007_199_254_740_992));
        assert_eq!(n("18446744073709549568"), Some(u64::MAX - 2047));
    }

    #[test]
    fn writer_vocabulary() {
        let v = obj([
            ("s", "x".into()),
            ("n", 7u32.into()),
            ("big", (1u64 << 40).into()),
            ("f", 0.5.into()),
            ("b", true.into()),
            ("none", None::<usize>.into()),
            ("some", Some(3usize).into()),
            ("a", arr(&[1u32, 2], JsonValue::from)),
            ("e", num_entries([("k", 1.5), ("j", 2.0)])),
        ])
        .with("absent", None)
        .with("present", Some("y".into()));
        assert_eq!(
            v.to_string_compact(),
            r#"{"s":"x","n":7,"big":1099511627776,"f":0.5,"b":true,"none":null,"some":3,"a":[1,2],"e":{"k":1.5,"j":2},"present":"y"}"#
        );
    }

    fn read<T>(
        text: &str,
        f: impl FnOnce(Reader<'_>) -> Result<T, SchemaError>,
    ) -> Result<T, String> {
        read_doc("doc", text, f).map_err(|e| e.to_string())
    }

    #[test]
    fn reader_accessors_check_what_they_narrow() {
        let text = r#"{"s": "x", "n": 7, "f": 1.9, "neg": -1, "wide": 4294967296,
            "huge": 1e30, "b": false, "null": null, "a": [1, 2], "m": {"k": 1.5}}"#;
        assert_eq!(read(text, |r| r.str("s").map(str::len)), Ok(1));
        assert_eq!(read(text, |r| r.u32("n")), Ok(7));
        assert_eq!(read(text, |r| r.f64("f")), Ok(1.9));
        assert_eq!(read(text, |r| r.bool("b")), Ok(false));
        assert_eq!(read(text, |r| r.u64("wide")), Ok(1 << 32));
        assert_eq!(read(text, |r| r.usize("wide")), Ok(1 << 32));
        assert_eq!(read(text, |r| r.get("huge", Reader::to_u128)), Ok(1e30 as u128));
        assert_eq!(read(text, |r| r.arr("a", Reader::to_u32)), Ok(vec![1, 2]));
        assert_eq!(
            read(text, |r| r.num_entries("m")),
            Ok(BTreeMap::from([("k".to_string(), 1.5)]))
        );
        assert_eq!(read(text, |r| r.opt("s", |s| s.to_str().map(str::len))), Ok(Some(1)));
        assert_eq!(read(text, |r| r.opt("null", |s| s.to_str().map(str::len))), Ok(None));
        assert_eq!(read(text, |r| r.opt("nope", |s| s.to_str().map(str::len))), Ok(None));

        let err = |f: fn(Reader<'_>) -> Result<u64, SchemaError>| read(text, f).unwrap_err();
        assert_eq!(err(|r| r.u64("nope")), "missing `doc.nope`");
        assert_eq!(err(|r| r.u64("null")), "missing `doc.null`");
        assert_eq!(err(|r| r.u64("s")), "expected an integer in 0..=18446744073709551615 at `doc.s`");
        let u32_err = "expected an integer in 0..=4294967295 at ";
        assert_eq!(err(|r| r.u32("f").map(u64::from)), format!("{u32_err}`doc.f`"));
        assert_eq!(err(|r| r.u32("neg").map(u64::from)), format!("{u32_err}`doc.neg`"));
        assert_eq!(err(|r| r.u32("wide").map(u64::from)), format!("{u32_err}`doc.wide`"));
        assert!(err(|r| r.u64("huge")).starts_with("expected an integer"));
        assert_eq!(err(|r| r.str("n").map(|_| 0)), "expected a string at `doc.n`");
        assert_eq!(err(|r| r.f64("s").map(|_| 0)), "expected a number at `doc.s`");
        assert_eq!(err(|r| r.bool("n").map(|_| 0)), "expected a boolean at `doc.n`");
        assert_eq!(err(|r| r.arr("m", Reader::to_u64).map(|_| 0)), "expected an array at `doc.m`");
        assert_eq!(err(|r| r.num_entries("a").map(|_| 0)), "expected an object at `doc.a`");
        assert_eq!(err(|r| r.get("s", |s| s.u64("k"))), "expected an object at `doc.s`");
    }

    #[test]
    fn reader_errors_carry_the_path() {
        let text = r#"{"layout": [{"clusters": []}, {"clusters": [{"size": 1}, {"size": "x"}]}]}"#;
        let sizes = |r: Reader<'_>| {
            r.arr("layout", |f| f.arr("clusters", |c| c.u64("size")))
        };
        assert_eq!(
            read(text, sizes).unwrap_err(),
            "expected an integer in 0..=18446744073709551615 at `doc.layout[1].clusters[1].size`"
        );
        let weights = |r: Reader<'_>| r.arr("layout", |f| f.arr("clusters", |c| c.u64("weight")));
        assert_eq!(read(text, weights).unwrap_err(), "missing `doc.layout[1].clusters[0].weight`");
        assert_eq!(read("[1, 2]", |r| r.u64("k")).unwrap_err(), "expected an object at `doc`");
        assert_eq!(
            read("[1, 2", |r| r.u64("k")).unwrap_err(),
            "JSON error at byte 5: expected `,` or `]`"
        );
        assert_eq!(
            read(r#"{"t": {"a b": {"n": -1}}}"#, |r| r.get("t", |t| t.to_map(|row| row.u32("n"))))
                .unwrap_err(),
            "expected an integer in 0..=4294967295 at `doc.t.a b.n`"
        );
    }

    #[test]
    fn escapes_and_nonfinite_numbers() {
        assert_eq!(escape_json("a\"b\\c\u{1}"), "a\\\"b\\\\c\\u0001");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
