//! A small TOML-subset parser for campaign specs.
//!
//! The workspace builds offline and keeps its CLI dependency-free, so
//! campaign specs are parsed by this ~200-line parser rather than a
//! full TOML crate. Supported grammar (a strict subset of TOML):
//!
//! * `key = value` pairs, top-level or under `[table]` headers;
//! * values: `"strings"` (with `\"`, `\\`, `\n`, `\t` escapes),
//!   integers, floats, booleans, and (possibly multi-line) arrays of
//!   scalars;
//! * `#` comments (whole-line or trailing).
//!
//! Unsupported TOML (nested tables, arrays of tables, datetimes,
//! dotted keys) is rejected with a line-numbered error rather than
//! misparsed.

use std::collections::BTreeMap;

/// A parsed scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// An array of values.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content widened to `f64` (ints included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Int(i) => Some(*i as f64),
            TomlValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer content.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            TomlValue::Int(i) if *i >= 0 => Some(*i as usize),
            _ => None,
        }
    }

    /// Boolean content.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if an array.
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parsed document: top-level keys plus named tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlDoc {
    /// Top-level `key = value` pairs.
    pub root: BTreeMap<String, TomlValue>,
    /// `[table]` sections.
    pub tables: BTreeMap<String, BTreeMap<String, TomlValue>>,
}

impl TomlDoc {
    /// Looks up a top-level key.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.root.get(key)
    }

    /// Looks up `key` inside `[table]`.
    pub fn get_in(&self, table: &str, key: &str) -> Option<&TomlValue> {
        self.tables.get(table).and_then(|t| t.get(key))
    }

    /// Parses a document.
    pub fn parse(text: &str) -> Result<TomlDoc, String> {
        let mut doc = TomlDoc::default();
        let mut current: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((lineno, raw)) = lines.next() {
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("line {}: {msg}", lineno + 1);
            if let Some(rest) = line.strip_prefix('[') {
                if rest.starts_with('[') {
                    return Err(err("arrays of tables ([[…]]) are not supported".into()));
                }
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated table header".into()))?
                    .trim();
                if name.is_empty() || !name.chars().all(is_key_char) {
                    return Err(err(format!("invalid table name {name:?}")));
                }
                if doc.tables.contains_key(name) {
                    return Err(err(format!("duplicate table [{name}]")));
                }
                doc.tables.insert(name.to_string(), BTreeMap::new());
                current = Some(name.to_string());
                continue;
            }
            let (key, value_text) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got {line:?}")))?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(is_key_char) {
                return Err(err(format!("invalid key {key:?}")));
            }
            // multi-line arrays: keep consuming lines until brackets
            // balance outside of strings, scanning each line once
            let mut value_text = value_text.trim().to_string();
            let mut brackets = Brackets::default();
            brackets.scan(&value_text);
            while !brackets.balanced() {
                let Some((_, next)) = lines.next() else {
                    return Err(err("unterminated array".into()));
                };
                let appended = value_text.len();
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
                brackets.scan(&value_text[appended..]);
            }
            let value = parse_value(value_text.trim())
                .map_err(|m| err(format!("value for `{key}`: {m}")))?;
            let target = match &current {
                Some(table) => doc.tables.get_mut(table).expect("table created"),
                None => &mut doc.root,
            };
            if target.insert(key.to_string(), value).is_some() {
                return Err(err(format!("duplicate key `{key}`")));
            }
        }
        Ok(doc)
    }
}

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `[`/`]` nesting of a value read piece by piece, ignoring brackets
/// inside strings; the state carries over from one piece to the next.
#[derive(Default)]
struct Brackets {
    depth: i32,
    in_string: bool,
    escaped: bool,
}

impl Brackets {
    fn scan(&mut self, text: &str) {
        for c in text.chars() {
            if self.escaped {
                self.escaped = false;
                continue;
            }
            match c {
                '\\' if self.in_string => self.escaped = true,
                '"' => self.in_string = !self.in_string,
                '[' if !self.in_string => self.depth += 1,
                ']' if !self.in_string => self.depth -= 1,
                _ => {}
            }
        }
    }

    /// True when every `[` so far is closed, outside any string.
    fn balanced(&self) -> bool {
        self.depth <= 0 && !self.in_string
    }
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    if text.is_empty() {
        return Err("empty value".into());
    }
    if let Some(rest) = text.strip_prefix('"') {
        let (s, consumed) = parse_string(rest)?;
        if !rest[consumed..].trim().is_empty() {
            return Err(format!(
                "trailing input after string: {:?}",
                &rest[consumed..]
            ));
        }
        return Ok(TomlValue::Str(s));
    }
    if text.starts_with('[') {
        return parse_array(text);
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let numeric = text.replace('_', "");
    if let Ok(i) = numeric.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    if let Ok(x) = numeric.parse::<f64>() {
        // reject things like `nan` that plain TOML wouldn't accept
        if x.is_finite() {
            return Ok(TomlValue::Float(x));
        }
    }
    Err(format!("unrecognized value {text:?}"))
}

/// Parses a string body after the opening quote; returns the content
/// and the byte offset just past the closing quote.
fn parse_string(rest: &str) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => return Err(format!("unsupported escape \\{other}")),
                None => return Err("unterminated escape".into()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_array(text: &str) -> Result<TomlValue, String> {
    let inner = text
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or("unterminated array")?;
    let mut items = Vec::new();
    for piece in split_top_level(inner) {
        let piece = piece.trim();
        if piece.is_empty() {
            continue; // trailing comma
        }
        let item = parse_value(piece)?;
        if matches!(item, TomlValue::Array(_)) {
            return Err("nested arrays are not supported".into());
        }
        items.push(item);
    }
    Ok(TomlValue::Array(items))
}

/// Splits on commas that are not inside strings.
fn split_top_level(text: &str) -> Vec<&str> {
    let mut pieces = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                pieces.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&text[start..]);
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec_shape() {
        let doc = TomlDoc::parse(
            r#"
# a campaign
name = "random-faults"     # trailing comment
seed = 42
replicates = 8
graphs = ["torus:16,16", "mesh:32,32"]
faults = [
    "random:0.01",
    "random:0.05",  # sweep point
]
enabled = true
ratio = 0.5

[params]
k = 2.0
trials = 12
"#,
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("random-faults"));
        assert_eq!(doc.get("seed").unwrap().as_usize(), Some(42));
        assert_eq!(doc.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("ratio").unwrap().as_f64(), Some(0.5));
        let graphs = doc.get("graphs").unwrap().as_array().unwrap();
        assert_eq!(graphs.len(), 2);
        let faults = doc.get("faults").unwrap().as_array().unwrap();
        assert_eq!(faults[1].as_str(), Some("random:0.05"));
        assert_eq!(doc.get_in("params", "k").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get_in("params", "trials").unwrap().as_usize(), Some(12));
    }

    #[test]
    fn string_escapes_and_hash_inside_string() {
        let doc = TomlDoc::parse("s = \"a#b \\\"q\\\" \\n\"").unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a#b \"q\" \n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(TomlDoc::parse("key").is_err());
        assert!(TomlDoc::parse("[unclosed").is_err());
        assert!(TomlDoc::parse("[[aot]]").is_err());
        assert!(TomlDoc::parse("k = ").is_err());
        assert!(TomlDoc::parse("k = [1, [2]]").is_err());
        assert!(TomlDoc::parse("k = \"unterminated").is_err());
        assert!(TomlDoc::parse("k = zebra").is_err());
        assert!(TomlDoc::parse("k = 1\nk = 2").is_err());
        assert!(
            TomlDoc::parse("[t]\na = 1\n[t]\nb = 2").is_err(),
            "duplicate table"
        );
        assert!(
            TomlDoc::parse("k = [1, 2").is_err(),
            "unterminated multiline array"
        );
    }

    #[test]
    fn long_multiline_array_matches_its_one_line_form() {
        // brackets, hashes and escaped quotes inside the strings must
        // neither close the array nor start a comment
        let items: Vec<String> = (0..300).map(|i| format!("\"g[{i}]#x\\\"]\"")).collect();
        let one_line = format!("k = [{}]\nafter = 1", items.join(", "));
        let multi_line = format!(
            "k = [\n{}]  # done\nafter = 1",
            items
                .iter()
                .map(|item| format!("    {item},  # [item] #\n"))
                .collect::<String>()
        );
        let doc = TomlDoc::parse(&multi_line).unwrap();
        assert_eq!(doc, TomlDoc::parse(&one_line).unwrap());
        let array = doc.get("k").unwrap().as_array().unwrap();
        assert_eq!(array.len(), 300);
        assert_eq!(array[7].as_str(), Some("g[7]#x\"]"));
        assert_eq!(doc.get("after").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn negative_and_underscored_numbers() {
        let doc = TomlDoc::parse("a = -3\nb = 1_000\nc = -2.5e-3").unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(-3.0));
        assert_eq!(doc.get("b").unwrap().as_usize(), Some(1000));
        assert!((doc.get("c").unwrap().as_f64().unwrap() + 0.0025).abs() < 1e-12);
        assert_eq!(doc.get("a").unwrap().as_usize(), None);
    }

    #[test]
    fn table_keys_do_not_leak_to_root() {
        let doc = TomlDoc::parse("a = 1\n[t]\nb = 2").unwrap();
        assert!(doc.get("b").is_none());
        assert_eq!(doc.get_in("t", "b").unwrap().as_usize(), Some(2));
        assert!(doc.get_in("t", "a").is_none());
    }
}
