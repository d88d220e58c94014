//! Minimal in-tree stand-in for `serde_json`, over the shim `serde`
//! crate's owned [`Value`] data model: a JSON writer and a recursive
//! descent JSON parser.

use serde::{DeError, Deserialize, Serialize};

pub use serde::Value;

/// Error type shared by serialization and parsing.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any shim-`Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        src: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                let s = format!("{x}");
                out.push_str(&s);
                // Keep floats recognizable as floats on re-parse.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
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
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

/// Arrays and objects nested deeper than this are an error: the parser
/// recurses once per level, and its input includes lines read from disk.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next token; always on a char boundary, since
    /// the parser steps over ASCII bytes or whole chars only.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    /// Parses one array or object with `f`, failing instead of recursing
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(Error(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Decode only the one char at `pos`: re-validating the
                    // rest of the input per char makes strings quadratic.
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty by peek, on a char boundary");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("bad number `{text}`")))
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => return Err(Error(format!("bad array token {other:?}"))),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => return Err(Error(format!("bad object token {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = vec![vec![1u64, 2], vec![3]];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1,2],[3]]");
        let back: Vec<Vec<u64>> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn strings_escape() {
        let s = to_string(&"a\"b\\c\nd".to_string()).unwrap();
        let back: String = from_str(&s).unwrap();
        assert_eq!(back, "a\"b\\c\nd");
    }

    #[test]
    fn multibyte_strings_round_trip() {
        let v = vec![
            "é".to_string(),
            "naïve café, 日本語 ✓".to_string(),
            "🦀\"\\\n🦀".to_string(),
        ];
        let s = to_string(&v).unwrap();
        let back: Vec<String> = from_str(&s).unwrap();
        assert_eq!(back, v);
        let escaped: String = from_str("\"caf\\u00e9 \\u65e5\"").unwrap();
        assert_eq!(escaped, "café 日");
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        let doc = to_string(&vec!["short string, ünïcödé ✓".to_string(); 80_000]).unwrap();
        assert!(doc.len() >= 2 << 20, "{} bytes", doc.len());
        // Parse on a helper thread so a quadratic parser fails the bound
        // instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || {
            let parsed: Result<Vec<String>, Error> = from_str(&doc);
            tx.send(parsed.map(|v| v.len())).unwrap();
        });
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a 2 MiB document of short strings parses within 30 s");
        assert_eq!(parsed.unwrap(), 80_000);
        parser.join().unwrap();
    }

    #[test]
    fn nesting_past_the_depth_bound_is_an_error() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nest(MAX_DEPTH + 1)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // A million open brackets used to overflow the stack and abort.
        assert!(from_str::<Value>(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn floats_survive() {
        let s = to_string(&2.0f64).unwrap();
        assert_eq!(s, "2.0");
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back, 2.0);
    }

    #[test]
    fn pretty_prints_indented() {
        let s = to_string_pretty(&vec![1u8]).unwrap();
        assert_eq!(s, "[\n  1\n]");
    }
}
