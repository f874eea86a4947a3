//! Byte-level JSON primitives for the trace format, with no allocation on
//! the common path.
//!
//! The hermetic build bans external dependencies, so the JSONL sink cannot
//! use a real JSON library. Trace records only ever need a *flat* object
//! whose values are unsigned integers, strings, booleans, or arrays of
//! integer arrays (the per-link charge lists). This module writes those
//! values straight into a byte buffer (`write_u64`, `write_str`) and
//! reads them back with a borrowing `Scanner`: integers are parsed in
//! place, and a string without escapes comes back as a slice of the line.
//! Anything outside the subset (nested objects, floats, `null`, negative
//! numbers, misspelt literals) is a [`SyntaxError`], never a panic.

use std::borrow::Cow;
use std::fmt;

/// Appends the decimal digits of `v` to `out`.
pub(crate) fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0..=0x1f => {
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            // Bytes of multi-byte UTF-8 sequences pass through unchanged.
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// Where a line stops being the trace subset of JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntaxError {
    /// Byte offset within the line.
    pub at: usize,
    /// What the scanner needed there.
    pub expected: &'static str,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

/// One value as [`Scanner::value`] leaves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Value {
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string, starting at this byte offset.
    Str(usize),
    /// An array of integer arrays, starting at this byte offset.
    Rows(usize),
}

/// A cursor over one line of JSON text.
#[derive(Debug)]
pub(crate) struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// A scanner at byte `pos` of `bytes`.
    pub fn at(bytes: &'a [u8], pos: usize) -> Self {
        Scanner { bytes, pos }
    }

    fn fail<T>(&self, expected: &'static str) -> Result<T, SyntaxError> {
        Err(SyntaxError {
            at: self.pos,
            expected,
        })
    }

    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is the next non-whitespace byte.
    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b) || self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    #[inline]
    fn expect(&mut self, b: u8, expected: &'static str) -> Result<(), SyntaxError> {
        if self.eat(b) {
            Ok(())
        } else {
            self.fail(expected)
        }
    }

    /// Walks one flat object, handing each key (its UTF-8 bytes, escapes
    /// decoded) to `field` with the scanner at the key's value; `field`
    /// must consume that value. Only whitespace may follow the `}`.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &[u8]) -> Result<(), SyntaxError>,
    ) -> Result<(), SyntaxError> {
        self.expect(b'{', "'{'")?;
        if !self.eat(b'}') {
            loop {
                let key = self.bytes()?;
                self.expect(b':', "':'")?;
                field(self, &key)?;
                if self.eat(b'}') {
                    break;
                }
                self.expect(b',', "',' or '}'")?;
            }
        }
        if self.peek().is_some() {
            return self.fail("end of record");
        }
        Ok(())
    }

    /// Consumes a string, checking its escapes and its UTF-8 without
    /// decoding it, and says whether it had escapes. Leaves the cursor
    /// after the closing quote.
    fn skip_string(&mut self) -> Result<bool, SyntaxError> {
        self.expect(b'"', "'\"'")?;
        let start = self.pos;
        let (mut escaped, mut ascii) = (false, true);
        loop {
            // Plain ASCII runs are the common case: skip them in one scan.
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || !b.is_ascii())
                .unwrap_or(rest.len());
            match self.bytes.get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') => match escape(&self.bytes[self.pos + 1..]) {
                    Some((_, len)) => {
                        escaped = true;
                        self.pos += 1 + len;
                    }
                    None => return self.fail("a valid escape"),
                },
                Some(_) => {
                    ascii = false;
                    self.pos += 1;
                }
                None => return self.fail("closing '\"'"),
            }
        }
        if !ascii && std::str::from_utf8(&self.bytes[start..self.pos]).is_err() {
            self.pos = start;
            return self.fail("UTF-8 text");
        }
        self.pos += 1;
        Ok(escaped)
    }

    /// A string's text as UTF-8 bytes, escapes decoded: borrowed from the
    /// line unless it has escapes. Known ASCII words match against this
    /// without a UTF-8 check.
    pub fn bytes(&mut self) -> Result<Cow<'a, [u8]>, SyntaxError> {
        self.peek();
        let start = self.pos;
        let escaped = self.skip_string()?;
        let mut raw = &self.bytes[start + 1..self.pos - 1];
        if !escaped {
            return Ok(Cow::Borrowed(raw));
        }
        let mut out = Vec::with_capacity(raw.len());
        while let Some(i) = raw.iter().position(|&b| b == b'\\') {
            out.extend_from_slice(&raw[..i]);
            let Some((c, len)) = escape(&raw[i + 1..]) else {
                return self.fail("a valid escape");
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
            raw = &raw[i + 1 + len..];
        }
        out.extend_from_slice(raw);
        Ok(Cow::Owned(out))
    }

    /// A string value: borrowed from the line unless it has escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, SyntaxError> {
        let at = self.pos;
        let invalid = SyntaxError {
            at,
            expected: "UTF-8 text",
        };
        Ok(match self.bytes()? {
            Cow::Borrowed(b) => Cow::Borrowed(std::str::from_utf8(b).map_err(|_| invalid)?),
            Cow::Owned(v) => Cow::Owned(String::from_utf8(v).map_err(|_| invalid)?),
        })
    }

    /// An unsigned decimal integer that fits in a `u64`.
    pub fn u64(&mut self) -> Result<u64, SyntaxError> {
        self.peek();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(d) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            v = match v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
            {
                Some(v) => v,
                None => return self.fail("an integer below 2^64"),
            };
            self.pos += 1;
        }
        if self.pos == start {
            return self.fail("an unsigned integer");
        }
        Ok(v)
    }

    /// `true` or `false`, spelt out in full.
    pub fn boolean(&mut self) -> Result<bool, SyntaxError> {
        self.peek();
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let (v, len) = if rest.starts_with(b"true") {
            (true, 4)
        } else if rest.starts_with(b"false") {
            (false, 5)
        } else {
            return self.fail("'true' or 'false'");
        };
        self.pos += len;
        Ok(v)
    }

    /// An array of integer arrays, e.g. `[[0,3,96],[1,1,96]]`. `row` sees
    /// each row's length and first three values and says whether to
    /// accept it.
    pub fn int_rows(
        &mut self,
        mut row: impl FnMut(usize, [u64; 3]) -> bool,
    ) -> Result<(), SyntaxError> {
        self.expect(b'[', "'['")?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            let start = self.pos;
            self.expect(b'[', "'['")?;
            let (mut len, mut head) = (0, [0u64; 3]);
            if !self.eat(b']') {
                loop {
                    let v = self.u64()?;
                    if let Some(slot) = head.get_mut(len) {
                        *slot = v;
                    }
                    len += 1;
                    if self.eat(b']') {
                        break;
                    }
                    self.expect(b',', "',' or ']' in an integer array")?;
                }
            }
            if !row(len, head) {
                self.pos = start;
                return self.fail("a [layer,line,bits] row");
            }
            if self.eat(b']') {
                return Ok(());
            }
            self.expect(b',', "',' or ']' in an array")?;
        }
    }

    /// Consumes any value of the subset: integers and booleans come back
    /// decoded, strings and integer-array arrays as the offset to read
    /// them from with [`Scanner::string`] or [`Scanner::int_rows`].
    pub fn value(&mut self) -> Result<Value, SyntaxError> {
        let at = self.pos;
        match self.peek() {
            Some(b'"') => self.skip_string().map(|_| Value::Str(at)),
            Some(b'0'..=b'9') => self.u64().map(Value::Int),
            Some(b't' | b'f') => self.boolean().map(Value::Bool),
            Some(b'[') => self.int_rows(|_, _| true).map(|()| Value::Rows(at)),
            _ => self.fail("a string, unsigned integer, boolean or integer-array array"),
        }
    }
}

/// The character an escape names and the escape's length, given the bytes
/// after its backslash.
fn escape(after: &[u8]) -> Option<(char, usize)> {
    let c = match *after.first()? {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'u' => {
            let mut code = 0;
            for &h in after.get(1..5)? {
                code = code * 16 + char::from(h).to_digit(16)?;
            }
            return Some((char::from_u32(code)?, 5));
        }
        _ => return None,
    };
    Some((c, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(line: &str) -> Result<Vec<(String, String)>, SyntaxError> {
        let mut fields = Vec::new();
        Scanner::at(line.as_bytes(), 0).object(|s, key| {
            let value = match s.peek() {
                Some(b'"') => s.string()?.into_owned(),
                Some(b'[') => {
                    let mut rows = Vec::new();
                    s.int_rows(|len, head| {
                        rows.push(head[..len.min(3)].to_vec());
                        true
                    })?;
                    format!("{rows:?}")
                }
                Some(b't' | b'f') => s.boolean()?.to_string(),
                _ => s.u64()?.to_string(),
            };
            fields.push((String::from_utf8(key.to_vec()).unwrap(), value));
            Ok(())
        })?;
        Ok(fields)
    }

    #[test]
    fn writer_and_parser_roundtrip() {
        let mut line = b"{\"type\":\"cast\",\"bits\":".to_vec();
        write_u64(&mut line, 96);
        line.extend_from_slice(b",\"hit\":true,\"max\":");
        write_u64(&mut line, u64::MAX);
        line.extend_from_slice(b",\"links\":[[0,3,48],[1,1,48]]}");
        let line = String::from_utf8(line).unwrap();
        assert_eq!(
            line,
            r#"{"type":"cast","bits":96,"hit":true,"max":18446744073709551615,"links":[[0,3,48],[1,1,48]]}"#
        );
        let fields = record(&line).unwrap();
        let want = [
            ("type", "cast"),
            ("bits", "96"),
            ("hit", "true"),
            ("max", "18446744073709551615"),
            ("links", "[[0, 3, 48], [1, 1, 48]]"),
        ];
        assert_eq!(fields.len(), want.len());
        for ((k, v), (wk, wv)) in fields.iter().zip(want) {
            assert_eq!((k.as_str(), v.as_str()), (wk, wv));
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\r\u{1}\u{1f}ü→/";
        let mut line = Vec::new();
        write_str(&mut line, nasty);
        assert_eq!(
            line,
            b"\"a\\\"b\\\\c\\nd\\te\\r\\u0001\\u001f\xc3\xbc\xe2\x86\x92/\""
        );
        let mut s = Scanner::at(&line, 0);
        let back = s.string().unwrap();
        assert!(matches!(back, Cow::Owned(_)));
        assert_eq!(back, nasty);
        // Plain strings are borrowed; `\/` and `\u` escapes decode.
        assert!(matches!(
            Scanner::at(b"\"combined\"", 0).string().unwrap(),
            Cow::Borrowed("combined")
        ));
        let decoded = Scanner::at(r#""a\/bü→""#.as_bytes(), 0).string().unwrap();
        assert_eq!(decoded, "a/bü→");
    }

    #[test]
    fn empty_object_and_empty_array() {
        assert!(record("{}").unwrap().is_empty());
        assert!(record(" { } \r").unwrap().is_empty());
        assert_eq!(record(r#"{"links":[]}"#).unwrap()[0].1, "[]");
        assert_eq!(record(r#"{"links":[[]]}"#).unwrap()[0].1, "[[]]");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            r#"{"a":1} trailing"#,
            r#"{"a":{"nested":1}}"#,
            r#"{"a":1.5}"#,
            r#"{"a":-1}"#,
            r#"{"a":null}"#,
            r#"{"a":tXyZ}"#,
            r#"{"a":fals}"#,
            r#"{"a":18446744073709551616}"#,
            r#"{"a":"\q"}"#,
            r#"{"a":"\ud800"}"#,
            r#"{"a":"\u12"}"#,
            r#"{"a":"open}"#,
            r#"{"a":[[1,2],3]}"#,
            r#"{"a":1,}"#,
            r#"{a:1}"#,
        ] {
            assert!(record(bad).is_err(), "accepted {bad:?}");
        }
        assert!(
            record("{\"a\":\"\u{1}\"}").is_ok(),
            "raw control bytes stay lenient"
        );
        let err = Scanner::at(b"{\"a\":\"\xff\"}", 0).object(|s, _| s.value().map(drop));
        assert_eq!(err.unwrap_err().expected, "UTF-8 text");
    }
}
