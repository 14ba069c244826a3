//! # fx-json — dependency-free JSON for the fault-expansion workspace
//!
//! The workspace builds offline, so instead of `serde`/`serde_json` it
//! carries this small crate: a JSON value model ([`Json`]), a strict
//! recursive-descent parser ([`Json::parse`]), compact and pretty
//! printers, and [`ToJson`]/[`FromJson`] traits with a macro helper
//! ([`impl_json_object!`]) that generates impls for plain structs in
//! the shape serde would produce.
//!
//! The campaign journal, the cell store, `aggregates.json`, the
//! `fxnet serve` bodies, the trace sinks and the bench ledger all
//! serialize through this crate; the journaled `CellResult` is the
//! one struct encoded through [`impl_json_object!`].
//!
//! ```ignore
//! use fx_json::{FromJson, Json, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct P { x: f64, label: String }
//! fx_json::impl_json_object!(P { x, label });
//!
//! let p = P { x: 1.5, label: "a".into() };
//! let text = fx_json::to_string(&p);           // {"x":1.5,"label":"a"}
//! let back: P = fx_json::from_str(&text).unwrap();
//! assert_eq!(back, p);
//! ```

#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON value.
///
/// Numbers keep three representations so that 64-bit integers (e.g.
/// RNG seeds) round-trip exactly: unsigned ([`Json::UInt`]), negative
/// ([`Json::Int`]), and everything else ([`Json::Num`]). The parser
/// produces `UInt`/`Int` for integer literals and `Num` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (exact).
    UInt(u64),
    /// A negative integer (exact).
    Int(i64),
    /// A non-integer (or huge) number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 9.0e15 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Pretty rendering with 2-space indentation. (Compact rendering,
    /// matching serde_json's default shape, comes from the `Display`
    /// impl, i.e. `json.to_string()`.)
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact rendering (`{"k":1}`), matching serde_json's default.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // serde_json has no representation for non-finite numbers
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        // integral values print without a fractional part
        let _ = write!(out, "{}", x as i64);
    } else {
        // shortest round-trip representation
        let _ = write!(out, "{x}");
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
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
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
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
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex}"))?;
                            self.pos += 4;
                            // surrogate pairs
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or("truncated surrogate pair")?;
                                    let lo_hex = std::str::from_utf8(lo_hex)
                                        .map_err(|_| "bad surrogate".to_string())?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| "bad surrogate".to_string())?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(format!(
                                            "high surrogate followed by \\u{lo_hex}, not a low \
                                             surrogate"
                                        ));
                                    }
                                    self.pos += 6;
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined).ok_or("bad surrogate pair")?
                                } else {
                                    return Err("lone high surrogate".into());
                                }
                            } else {
                                char::from_u32(code).ok_or("bad \\u code point")?
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // consume the full UTF-8 character starting at b
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or("truncated UTF-8 sequence")?;
                    let s = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8".to_string())?;
                    out.push_str(s);
                    self.pos = end;
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
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                integral = false;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    /// Converts from a JSON value.
    fn from_json(v: &Json) -> Result<Self, String>;
}

/// Serializes compactly (serde_json `to_string` shape).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serializes with 2-space indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses `text` and converts to `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, String> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_bool()
            .ok_or_else(|| format!("expected bool, got {v:?}"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {v:?}"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! impl_json_float {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                match v {
                    // non-finite floats serialize as null; accept both ways
                    Json::Null => Ok(<$t>::NAN),
                    other => other
                        .as_f64()
                        .map(|x| x as $t)
                        .ok_or_else(|| format!("expected number, got {other:?}")),
                }
            }
        }
    )*};
}

impl_json_float!(f32, f64);

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                let u = v
                    .as_u64()
                    .ok_or_else(|| format!("expected unsigned integer, got {v:?}"))?;
                <$t>::try_from(u)
                    .map_err(|_| format!("integer {u} out of range for {}", stringify!($t)))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_sint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 {
                    Json::UInt(v as u64)
                } else {
                    Json::Int(v)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                let wide: i64 = match v {
                    Json::UInt(u) => i64::try_from(*u)
                        .map_err(|_| format!("integer {u} too large for {}", stringify!($t)))?,
                    Json::Int(i) => *i,
                    Json::Num(x) if x.fract() == 0.0 && x.abs() <= 9.0e15 => *x as i64,
                    other => return Err(format!("expected integer, got {other:?}")),
                };
                <$t>::try_from(wide)
                    .map_err(|_| format!("integer {wide} out of range for {}", stringify!($t)))
            }
        }
    )*};
}

impl_json_sint!(i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v:?}"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(format!("expected 2-element array, got {v:?}")),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(format!("expected 3-element array, got {v:?}")),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct with named
/// fields, in serde's default shape: `{"field": value, ...}`.
///
/// Fields listed in an optional trailing `default { ... }` block fall
/// back to `Default::default()` when the key is absent — the
/// back-compat hook for fields added to a type whose serialized form
/// already exists on disk (e.g. journal records from an older build).
///
/// ```ignore
/// fx_json::impl_json_object!(Point { x, y });
/// fx_json::impl_json_object!(Record { key, value } default { notes });
/// ```
#[macro_export]
macro_rules! impl_json_object {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_json_object!($ty { $($field),+ } default {});
    };
    ($ty:ident { $($field:ident),+ $(,)? } default { $($dfield:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)+
                    $((stringify!($dfield).to_string(), $crate::ToJson::to_json(&self.$dfield)),)*
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, String> {
                Ok($ty {
                    $($field: {
                        match v.get(stringify!($field)) {
                            Some(f) => $crate::FromJson::from_json(f),
                            None => $crate::FromJson::from_json(&$crate::Json::Null),
                        }
                        .map_err(|e| {
                            format!("{}.{}: {}", stringify!($ty), stringify!($field), e)
                        })?
                    },)+
                    $($dfield: {
                        match v.get(stringify!($dfield)) {
                            Some(f) => $crate::FromJson::from_json(f).map_err(|e| {
                                format!("{}.{}: {}", stringify!($ty), stringify!($dfield), e)
                            })?,
                            None => Default::default(),
                        }
                    },)*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        count: usize,
        ratio: f64,
        upper: Option<f64>,
        ok: bool,
        pairs: Vec<(String, f64)>,
    }
    impl_json_object!(Demo {
        name,
        count,
        ratio,
        upper,
        ok,
        pairs
    });

    fn demo() -> Demo {
        Demo {
            name: "q\"uote".into(),
            count: 42,
            ratio: 0.125,
            upper: None,
            ok: true,
            pairs: vec![("x".into(), 1.5), ("y".into(), -2.0)],
        }
    }

    #[test]
    fn object_roundtrip_compact_shape() {
        let d = demo();
        let text = to_string(&d);
        assert!(text.contains("\"count\":42"), "{text}");
        assert!(text.contains("null"), "{text}");
        let back: Demo = from_str(&text).unwrap();
        assert_eq!(back, d);
    }

    #[derive(Debug, PartialEq, Default)]
    struct Versioned {
        key: String,
        notes: Vec<(String, f64)>,
    }
    impl_json_object!(Versioned { key } default { notes });

    #[test]
    fn object_default_fields_tolerate_absent_keys() {
        // a document written before `notes` existed still loads
        let old: Versioned = from_str(r#"{"key":"a"}"#).unwrap();
        assert_eq!(old.key, "a");
        assert!(old.notes.is_empty());
        // round-trip serializes and restores the field normally
        let full = Versioned {
            key: "b".into(),
            notes: vec![("n".into(), 1.5)],
        };
        let text = to_string(&full);
        assert!(text.contains("\"notes\""), "{text}");
        assert_eq!(from_str::<Versioned>(&text).unwrap(), full);
        // present-but-wrong-type is still a loud error
        let err = from_str::<Versioned>(r#"{"key":"c","notes":7}"#).unwrap_err();
        assert!(err.contains("Versioned.notes"), "{err}");
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let v = Json::parse(
            r#" { "a": [1, 2.5, -3e2], "b": "hi\nthere", "c": null, "d": {"e": true} } "#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("hi\nthere"));
        assert!(v.get("c").unwrap().is_null());
        assert_eq!(v.get("d").unwrap().get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_and_escape_roundtrip() {
        let original = Json::Str("π \"x\" \\ \t ☃ \u{1F600}".into());
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // \u escapes, including surrogate pairs
        let v = Json::parse(r#""\u03c0 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("π 😀"));
        // malformed surrogates must error, not underflow/panic
        assert!(Json::parse(r#""\ud800\u0041""#).is_err()); // high + non-low escape
        assert!(Json::parse(r#""\ud800A""#).is_err()); // lone high
        assert!(Json::parse(r#""\udc00""#).is_err()); // lone low
        assert!(Json::parse(r#""\ud800""#).is_err()); // truncated
    }

    #[test]
    fn number_precision_roundtrip() {
        for x in [0.1, 1.0 / 3.0, 1e-12, 123456789.0, -0.0625, 2.0f64.powi(52)] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{text}");
        }
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn pretty_printer_indents() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": ["));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn missing_fields_error_with_path() {
        let err = from_str::<Demo>("{\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("Demo.count"), "{err}");
    }
}
