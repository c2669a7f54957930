//! The JSONL wire format every record in the workspace is written and read
//! with: the escape set, the float rule, a fixed-key-order object writer,
//! and a reader that matches top-level keys only (DESIGN.md §10).

use std::borrow::Cow;
use std::fmt::{self, Display, Write as _};

/// Escape a string for a JSON (or Prometheus label) literal: `"` and `\`
/// get a backslash, newline, tab and carriage return their short forms, and
/// every other control character below U+0020 becomes `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
    let plain = |b: u8| b >= 0x20 && b != b'"' && b != b'\\';
    let mut rest = s;
    // Every escaped byte is ASCII, so each split falls on a char boundary.
    while let Some(i) = rest.bytes().position(|b| !plain(b)) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Format a float for JSON: finite values in Rust's shortest round-trip
/// form, non-finite values as `null`. Formatting the result allocates
/// nothing; `.to_string()` it where a `String` is needed.
pub fn json_f64(v: f64) -> impl Display + Copy {
    JsonF64(v)
}

#[derive(Clone, Copy)]
struct JsonF64(f64);

impl Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Render one JSON object: `f` writes its fields, whose keys keep the order
/// they are written in.
pub fn object(f: impl FnOnce(&mut Obj)) -> String {
    // Room for the longest records (epoch, decision, tournament cell lines).
    let mut line = String::with_capacity(320);
    write(&mut line, f);
    line
}

/// Append one JSONL line to `out`: the [`object`] `f` writes, and a newline.
pub fn push_line(out: &mut String, f: impl FnOnce(&mut Obj)) {
    write(out, f);
    out.push('\n');
}

fn write(out: &mut String, f: impl FnOnce(&mut Obj)) {
    out.push('{');
    f(&mut Obj { out, empty: true });
    out.push('}');
}

/// The fields of one object being written (see [`object`]).
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    /// Write `"key":` and hand back the buffer for the value. Keys are
    /// names from the code, never input, so they are written as given.
    fn key(&mut self, key: &str) -> &mut String {
        debug_assert_eq!(escape(key), key, "a key that needs escaping");
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A string value, escaped.
    pub fn str(&mut self, key: &str, v: &str) {
        let out = self.key(key);
        out.push('"');
        push_escaped(out, v);
        out.push('"');
    }

    /// A float under the float rule ([`json_f64`]).
    pub fn f64(&mut self, key: &str, v: f64) {
        self.raw(key, JsonF64(v));
    }

    /// A value written as its `Display` text: an integer, a boolean, `null`.
    pub fn raw(&mut self, key: &str, v: impl Display) {
        let _ = write!(self.key(key), "{v}");
    }

    /// `v`'s `Display` text, or `null` when it is `None`.
    pub fn opt(&mut self, key: &str, v: Option<impl Display>) {
        match v {
            Some(v) => self.raw(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// An array of values written as their `Display` text.
    pub fn array(&mut self, key: &str, items: impl IntoIterator<Item = impl Display>) {
        let out = self.key(key);
        out.push('[');
        for (i, v) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }

    /// A nested object under `key`: `f` writes its fields.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Obj)) {
        write(self.key(key), f);
    }
}

/// The top-level fields of one JSON object line, parsed once.
pub struct Fields<'a> {
    fields: Vec<(Cow<'a, str>, Cow<'a, str>)>,
}

impl<'a> Fields<'a> {
    /// Parse `line` as one JSON object; `None` when it is anything else.
    /// Nested arrays and objects are skipped to their matching close.
    pub fn parse(line: &'a str) -> Option<Fields<'a>> {
        let mut s = Scanner { s: line, i: 0 };
        let mut fields = Vec::with_capacity(16);
        s.eat(b'{').then_some(())?;
        if !s.eat(b'}') {
            fields.push(s.member()?);
            while s.eat(b',') {
                fields.push(s.member()?);
            }
            s.eat(b'}').then_some(())?;
        }
        s.ws();
        (s.i == line.len()).then_some(Fields { fields })
    }

    /// The value of top-level `key` (the first, if repeated): a string
    /// unescaped, any other value as written (a number, `true`, `false`,
    /// `null`, or a whole array or object).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| &**v)
    }
}

/// The value of `line`'s first field, as [`Fields::get`] gives it, when
/// that field's key is `key`. Reads no further than the first field, so a
/// record's kind can be checked without parsing the record.
pub fn first_field<'a>(line: &'a str, key: &str) -> Option<Cow<'a, str>> {
    let mut s = Scanner { s: line, i: 0 };
    s.eat(b'{').then_some(())?;
    let (k, v) = s.member()?;
    (k == key).then_some(v)
}

/// A cursor over one line.
struct Scanner<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Skip whitespace, then consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    /// `"key":value`.
    fn member(&mut self) -> Option<(Cow<'a, str>, Cow<'a, str>)> {
        let k = self.string()?;
        self.eat(b':').then_some(())?;
        self.ws();
        let start = self.i;
        match self.peek()? {
            b'"' => return Some((k, self.string()?)),
            b'[' | b'{' => self.nested()?,
            // A number or literal, left for the caller to parse.
            _ => {
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || b"+-.".contains(&c))
                {
                    self.i += 1;
                }
            }
        }
        (self.i > start).then(|| (k, Cow::Borrowed(&self.s[start..self.i])))
    }

    /// A string literal, unescaped: borrowed from the line unless it holds
    /// an escape.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.eat(b'"').then_some(())?;
        let s = self.s;
        let mut decoded: Option<String> = None;
        let mut run = self.i;
        loop {
            match *s.as_bytes().get(self.i)? {
                b'"' => break,
                b'\\' => {
                    let (c, len) = unescape(&s[self.i + 1..])?;
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&s[run..self.i]);
                    out.push(c);
                    self.i += 1 + len;
                    run = self.i;
                }
                0..=0x1f => return None,
                _ => self.i += 1,
            }
        }
        let rest = &s[run..self.i];
        self.i += 1;
        Some(match decoded {
            Some(out) => Cow::Owned(out + rest),
            None => Cow::Borrowed(rest),
        })
    }

    /// Skip an array or object to its matching close (iteratively, so no
    /// depth overflows the stack); brackets inside strings do not count.
    fn nested(&mut self) -> Option<()> {
        let mut depth = 0usize;
        loop {
            match self.peek()? {
                b'"' => {
                    self.string()?;
                    continue;
                }
                b'[' | b'{' => depth += 1,
                b']' | b'}' => depth -= 1,
                _ => {}
            }
            self.i += 1;
            if depth == 0 {
                return Some(());
            }
        }
    }
}

/// The character the escape after a backslash spells, and the escape's
/// length; `None` when `esc` does not start with a JSON escape.
fn unescape(esc: &str) -> Option<(char, usize)> {
    let hex = |at: usize| {
        let h = esc
            .get(at..at + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
        u32::from_str_radix(h, 16).ok()
    };
    Some(match *esc.as_bytes().first()? {
        b @ (b'"' | b'\\' | b'/') => (char::from(b), 1),
        b'b' => ('\u{8}', 1),
        b'f' => ('\u{c}', 1),
        b'n' => ('\n', 1),
        b'r' => ('\r', 1),
        b't' => ('\t', 1),
        // A surrogate pair spells one character in two escapes.
        b'u' => match (hex(1)?, esc.get(5..7) == Some("\\u"), hex(7)) {
            (hi @ 0xd800..=0xdbff, true, Some(lo @ 0xdc00..=0xdfff)) => {
                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                (char::from_u32(code)?, 11)
            }
            (code, ..) => (char::from_u32(code).unwrap_or('\u{fffd}'), 5),
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn write_one(key: &str, v: &str) -> String {
        object(|o| {
            o.str("kind", "probe");
            o.str(key, v);
            o.raw("n", 1);
        })
    }

    #[test]
    fn escape_set_is_fixed() {
        assert_eq!(escape("plain é ✓"), "plain é ✓");
        assert_eq!(escape("q\"b\\n\nt\tr\r"), "q\\\"b\\\\n\\nt\\tr\\r");
        assert_eq!(escape("\u{1}\u{1f}\u{7f}"), "\\u0001\\u001f\u{7f}");
    }

    #[test]
    fn float_rule() {
        assert_eq!(json_f64(0.1).to_string(), "0.1");
        assert_eq!(json_f64(3.0).to_string(), "3");
        assert_eq!(json_f64(-2.5e-300).to_string(), format!("{}", -2.5e-300));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_f64(v).to_string(), "null");
        }
    }

    #[test]
    fn writer_keeps_key_order_and_nests() {
        let mut line = "prefix ".to_string();
        push_line(&mut line, |o| {
            o.str("kind", "gauge");
            o.f64("value", f64::NAN);
            o.obj("labels", |l| l.str("a", "x\"y"));
            o.array("bounds", [1.5, 2.0].map(json_f64));
            o.array("empty", Vec::<u8>::new());
            o.raw("ok", true);
        });
        let line = line.strip_prefix("prefix ").expect("appended");
        let line = line.strip_suffix('\n').expect("one line");
        assert_eq!(
            line,
            r#"{"kind":"gauge","value":null,"labels":{"a":"x\"y"},"bounds":[1.5,2],"empty":[],"ok":true}"#
        );
        let f = Fields::parse(line).expect("writer output parses");
        assert_eq!(f.get("kind"), Some("gauge"));
        assert_eq!(f.get("value"), Some("null"));
        assert_eq!(f.get("labels"), Some(r#"{"a":"x\"y"}"#));
        assert_eq!(f.get("bounds"), Some("[1.5,2]"));
        assert_eq!(f.get("ok"), Some("true"));
        assert_eq!(f.get("missing"), None);
        assert!(Fields::parse("{}").is_some_and(|f| f.get("a").is_none()));
    }

    #[test]
    fn reader_matches_top_level_keys_only() {
        let line = r#"{"kind":"decision","note":"\"action\":\"x\"","inner":{"action":"y"},"action":"step"}"#;
        let f = Fields::parse(line).unwrap();
        assert_eq!(f.get("action"), Some("step"));
        assert_eq!(f.get("note"), Some("\"action\":\"x\""));
        assert_eq!(first_field(line, "kind").as_deref(), Some("decision"));
        assert_eq!(first_field(line, "action"), None, "not the first key");
        assert_eq!(first_field("{\"n\":1}", "n").as_deref(), Some("1"));
        // Whitespace between tokens is allowed; trailing bytes are not.
        let spaced = " { \"a\" : [ 1 , 2 ] , \"b\" : \"c\" } ";
        assert_eq!(Fields::parse(spaced).unwrap().get("a"), Some("[ 1 , 2 ]"));
        assert!(Fields::parse("{\"a\":1}}").is_none());
    }

    #[test]
    fn reader_refuses_malformed_lines() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            "{\"a\":1",
            "{\"a\":\"open",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{\"a\":}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12g4\"}",
            "{\"a\":\"raw\ttab\"}",
            "{\"a\":[1,}",
            "{\"a\":x\"y\"}",
        ] {
            assert!(Fields::parse(bad).is_none(), "{bad:?}");
        }
        // Nesting is skipped without recursion, however deep.
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(
            Fields::parse(&deep).and_then(|f| f.get("a").map(str::len)),
            Some(200_000)
        );
        assert!(Fields::parse(&deep[..deep.len() - 2]).is_none(), "unclosed");
    }

    #[test]
    fn unescape_decodes_every_escape() {
        let line = r#"{"s":"\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud800x"}"#;
        let f = Fields::parse(line).unwrap();
        assert_eq!(f.get("s"), Some("\"\\/\u{8}\u{c}\n\r\té😀\u{fffd}x"));
        assert!(matches!(
            first_field(r#"{"s":"plain"}"#, "s"),
            Some(Cow::Borrowed("plain"))
        ));
    }

    /// Characters that exercise every escape path, mixed into arbitrary
    /// code points below.
    const SPECIAL: [char; 12] = [
        '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é', '✓', '😀', '/',
    ];

    fn arb_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0usize..24, 0u32..0x1_1000), 0..24).prop_map(|cs| {
            cs.into_iter()
                .map(|(pick, code)| match SPECIAL.get(pick) {
                    Some(&c) => c,
                    None => char::from_u32(code).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    proptest! {
        /// Any string, the empty one included, reads back exactly as
        /// written, as a key or as a value.
        #[test]
        fn strings_round_trip(v in arb_string(), k in arb_string()) {
            let line = write_one("v", &v);
            let f = Fields::parse(&line).expect("writer output parses");
            prop_assert_eq!(f.get("v"), Some(v.as_str()));
            prop_assert_eq!(f.get("n"), Some("1"));
            // The writer's keys are plain names; another writer may escape.
            let keyed = format!("{{\"{}\":\"x\"}}", escape(&k));
            let f = Fields::parse(&keyed).expect("escaped key parses");
            prop_assert_eq!(f.get(&k), Some("x"));
            prop_assert!(!line.contains('\n'), "one line: {}", line);
        }

        /// A value spelling out another record's kind never changes what
        /// the reader returns for `kind`.
        #[test]
        fn values_cannot_forge_keys(prefix in arb_string()) {
            let forged = format!("{prefix}x\",\"kind\":\"fleet-checkpoint");
            let line = object(|o| {
                o.str("route", &forged);
                o.str("kind", "fleet-job");
            });
            let f = Fields::parse(&line).expect("parses");
            prop_assert_eq!(f.get("kind"), Some("fleet-job"));
            prop_assert_eq!(f.get("route"), Some(forged.as_str()));
            prop_assert_eq!(first_field(&line, "kind"), None);
        }
    }
}
