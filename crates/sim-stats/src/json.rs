//! The workspace's one JSON format: a strict, order-preserving reader
//! ([`parse`]) and a compact object writer ([`ObjectWriter`]) for run
//! reports, flight-recorder JSONL and benchmark rows. Objects keep their
//! keys in document order and numbers keep their literal text, so
//! integers read back exactly. The reader rejects anything outside the
//! JSON grammar (unterminated input, trailing commas or data, leading
//! zeros, duplicate keys) and `\u` escapes of surrogates, which the writer
//! never emits.

use std::fmt::Write as _;

/// Deepest nesting [`parse`] accepts (bounds its recursion).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's entries in document order (keys are unique).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key`, when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let entries = self.as_object()?;
        entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An object's entries, in document order.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        let Value::Object(entries) = self else {
            return None;
        };
        Some(entries)
    }

    /// An object's keys in document order (none for other values).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let entries = self.as_object().unwrap_or_default();
        entries.iter().map(|(k, _)| k.as_str())
    }

    /// An array's items.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(items) = self else {
            return None;
        };
        Some(items)
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        let Value::String(s) = self else { return None };
        Some(s)
    }

    /// A number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        let Value::Number(text) = self else {
            return None;
        };
        text.parse().ok()
    }

    /// A number written as an integer in `0..=u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Number(text) = self else {
            return None;
        };
        text.parse().ok()
    }
}

/// Parse one JSON document (surrounding whitespace allowed, nothing else).
/// The error names the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        rest: text,
        len: text.len(),
    };
    let value = p.value(0)?;
    p.skip_ws();
    if !p.rest.is_empty() {
        return p.fail("trailing data after the document");
    }
    Ok(value)
}

/// The unread rest of a `len`-byte document.
struct Parser<'a> {
    rest: &'a str,
    len: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        let at = self.len - self.rest.len();
        Err(format!("invalid JSON at byte {at}: {what}"))
    }

    /// Consume `prefix` if the input continues with it.
    fn eat(&mut self, prefix: &str) -> bool {
        let after = self.rest.strip_prefix(prefix);
        self.rest = after.unwrap_or(self.rest);
        after.is_some()
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
    }

    /// Consume a run of ASCII digits, reporting whether there was one.
    fn digits(&mut self) -> bool {
        let before = self.rest.len();
        self.rest = self.rest.trim_start_matches(|c: char| c.is_ascii_digit());
        self.rest.len() < before
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        self.skip_ws();
        if self.eat("{") {
            let mut entries: Vec<(String, Value)> = Vec::new();
            self.items("}", |p| {
                if !p.eat("\"") {
                    return p.fail("expected a string key");
                }
                let key = p.string()?;
                if entries.iter().any(|(k, _)| *k == key) {
                    return p.fail("duplicate key");
                }
                p.skip_ws();
                if !p.eat(":") {
                    return p.fail("expected ':' after a key");
                }
                entries.push((key, p.value(depth + 1)?));
                Ok(())
            })?;
            return Ok(Value::Object(entries));
        }
        if self.eat("[") {
            let mut items = Vec::new();
            self.items("]", |p| {
                items.push(p.value(depth + 1)?);
                Ok(())
            })?;
            return Ok(Value::Array(items));
        }
        if self.eat("\"") {
            return self.string().map(Value::String);
        }
        for (word, v) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.eat(word) {
                return Ok(v);
            }
        }
        self.number()
    }

    /// The comma-separated items of an object or array whose opening
    /// bracket was just read, through the `close` bracket.
    fn items(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return self.fail("expected ',' or a closing bracket");
            }
        }
    }

    /// The rest of a string whose opening quote was just read.
    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            let mut chars = self.rest.chars();
            match chars.next() {
                None => return self.fail("unterminated string"),
                Some(c) if c < ' ' => return self.fail("control character in a string"),
                Some(c) => {
                    self.rest = chars.as_str();
                    match c {
                        '"' => return Ok(out),
                        '\\' => out.push(self.escape()?),
                        c => out.push(c),
                    }
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        // The two-character escapes, each at the index of its letter.
        if let Some(i) = "\"\\/bfnrt".find(|c| self.rest.starts_with(c)) {
            self.rest = &self.rest[1..];
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        let hex = self.rest.strip_prefix('u').and_then(|r| r.get(..4));
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        match hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?)) {
            Some(c) => {
                self.rest = &self.rest[5..];
                Ok(c)
            }
            None => self.fail("invalid escape"),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.rest;
        if !start.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            return self.fail("expected a value");
        }
        self.eat("-");
        let int = self.eat("0") || self.digits();
        let frac = !self.eat(".") || self.digits();
        let exp = !(self.eat("e") || self.eat("E")) || {
            let _ = self.eat("+") || self.eat("-");
            self.digits()
        };
        if !(int && frac && exp) {
            return self.fail("malformed number");
        }
        let text = &start[..start.len() - self.rest.len()];
        Ok(Value::Number(text.to_string()))
    }
}

/// Writes one JSON object, key by key, in call order.
///
/// [`ObjectWriter::new`] writes the compact form (`{"a":1,"b":{"c":2}}`)
/// of run reports and JSONL records. [`ObjectWriter::document`] writes a
/// file with one top-level key per line, whose [`ObjectWriter::rows`]
/// array holds one compact object per line, so diffs of regenerated
/// benchmark files stay row by row.
#[derive(Debug, Clone, Default)]
pub struct ObjectWriter {
    buf: String,
    document: bool,
}

impl ObjectWriter {
    /// A compact object.
    pub fn new() -> Self {
        Self::default()
    }

    /// A file-level object: `"key": value` entries one per line, then `}`
    /// and a newline.
    pub fn document() -> Self {
        ObjectWriter {
            buf: String::new(),
            document: true,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        let (open, comma, colon) = match self.document {
            false => ("{", ",", ":"),
            true => ("{\n", ",\n", ": "),
        };
        self.buf
            .push_str(if self.buf.is_empty() { open } else { comma });
        write_string(&mut self.buf, key);
        self.buf.push_str(colon);
        &mut self.buf
    }

    /// An integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A float field with exactly `decimals` digits after the point (JSON
    /// has no NaN or infinity: callers pass finite values).
    pub fn f64(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        let _ = write!(self.key(key), "{value:.decimals$}");
        self
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_string(self.key(key), value);
        self
    }

    /// A `true` / `false` field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// A nested compact object, filled in by `fill`.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut ObjectWriter)) -> &mut Self {
        let mut inner = ObjectWriter::new();
        fill(&mut inner);
        self.key(key).push_str(&inner.finish());
        self
    }

    /// An array of already written objects, one per line.
    pub fn rows(&mut self, key: &str, rows: impl IntoIterator<Item = String>) -> &mut Self {
        let lines: Vec<String> = rows.into_iter().map(|row| format!("  {row}")).collect();
        let _ = write!(self.key(key), "[\n{}\n]", lines.join(",\n"));
        self
    }

    /// Close the object and return its text.
    pub fn finish(self) -> String {
        let open = if self.buf.is_empty() { "{" } else { "" };
        let close = if self.document { "\n}\n" } else { "}" };
        format!("{open}{}{close}", self.buf)
    }
}

/// Append `s` as a JSON string literal.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind_in_document_order() {
        let v = parse(
            " {\"z\": [1, -2.5e3, 0], \"a\": {\"t\": true, \"f\": false, \"n\": null},\
             \"s\": \"q\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9😀\"} \n",
        )
        .unwrap();
        assert_eq!(v.keys().collect::<Vec<_>>(), ["z", "a", "s"]);
        let z = v.get("z").and_then(Value::as_array).unwrap();
        assert_eq!(z[0].as_u64(), Some(1));
        assert_eq!(z[1].as_f64(), Some(-2500.0));
        assert_eq!(z[1].as_u64(), None);
        assert_eq!(
            v.get("a").unwrap().keys().collect::<Vec<_>>(),
            ["t", "f", "n"]
        );
        assert_eq!(v.get("a").unwrap().get("t"), Some(&Value::Bool(true)));
        assert_eq!(v.get("a").unwrap().get("n"), Some(&Value::Null));
        assert_eq!(
            v.get("s").and_then(Value::as_str),
            Some("q\"\\/\u{8}\u{c}\n\r\té😀")
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(z[0].get("x"), None, "get on a non-object");
        assert_eq!(z[0].keys().count(), 0);
    }

    #[test]
    fn u64_is_exact_over_the_whole_range() {
        let v = parse("[18446744073709551615, 18446744073709551616]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), None, "overflow is not a u64");
        assert!(items[1].as_f64().is_some());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "   ",
            "{",
            "{\"a\":1",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":1} x",
            "{}{}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\ud83d\\ude00\"",
            "\"raw\ncontrol\"",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "+1",
            "tru",
            "nul",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let e = parse("{\"a\":1,}").unwrap_err();
        assert!(e.starts_with("invalid JSON at byte 7:"), "{e}");
    }

    #[test]
    fn writes_compact_objects_that_parse_back() {
        let mut w = ObjectWriter::new();
        w.u64("n", 7)
            .f64("rate", 0.125, 6)
            .str("label", "a\"b\\c\n\u{1}é")
            .bool("quick", false)
            .object("inner", |o| {
                o.u64("x", 1).object("empty", |_| {});
            });
        let text = w.finish();
        assert_eq!(
            text,
            "{\"n\":7,\"rate\":0.125000,\"label\":\"a\\\"b\\\\c\\n\\u0001é\",\
             \"quick\":false,\"inner\":{\"x\":1,\"empty\":{}}}"
        );
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("label").and_then(Value::as_str),
            Some("a\"b\\c\n\u{1}é")
        );
        assert_eq!(
            v.get("inner").unwrap().get("x").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }

    #[test]
    fn documents_put_one_row_per_line() {
        let row = |i: u64| {
            let mut o = ObjectWriter::new();
            o.u64("i", i);
            o.finish()
        };
        let mut doc = ObjectWriter::document();
        doc.str("workload", "demo")
            .bool("quick", true)
            .rows("rows", (0..2).map(row));
        let text = doc.finish();
        assert_eq!(
            text,
            "{\n\"workload\": \"demo\",\n\"quick\": true,\n\"rows\": [\n  {\"i\":0},\n  {\"i\":1}\n]\n}\n"
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.get("rows").and_then(Value::as_array).unwrap().len(), 2);
    }
}
