//! A minimal, dependency-free JSON reader/writer — just enough for the
//! fixed message shapes of `ltc-proto` v2 and v1 (see [`crate::wire`]).
//!
//! Like `ltc_core::snapshot`, this is hand-rolled because the build
//! environment has no crate registry; unlike a general-purpose JSON
//! library it makes two simplifying choices that the protocol leans on:
//!
//! * **Numbers stay text.** A [`Json::Num`] keeps the raw token, so
//!   64-bit ids round-trip without passing through `f64` (which would
//!   corrupt ids above 2^53). Accessors parse on demand.
//! * **Floats never appear as JSON numbers.** Protocol messages carry
//!   every `f64` as its 16-hex-digit IEEE-754 bit pattern in a string
//!   (the snapshot format's convention), so decimal formatting can never
//!   perturb a coordinate or accuracy on the wire.
//!
//! The reader is hostile-input safe: recursion is depth-capped, escapes
//! are validated, and every failure is a typed [`JsonError`] — never a
//! panic.

use std::fmt;

/// Maximum nesting depth the parser accepts (protocol messages use 3).
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (see the module docs).
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the frame.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value (one protocol frame). Trailing
/// non-whitespace is an error — a frame is exactly one value.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("empty number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        // Validate the token now so accessors can't meet garbage like
        // `1.2.3`; the raw text is still what gets stored.
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.err("malformed number"))?;
        Ok(Json::Num(raw.to_string()))
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // A surrogate pair: the low half must
                                // follow immediately as another \uXXXX.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(first)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy the run of unescaped bytes up to the next
                    // quote, backslash or control byte in one piece. The
                    // frame arrived as &str and the run starts and ends
                    // at an ASCII byte (or the end), so both ends are
                    // char boundaries and nothing needs re-validating.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let v = ltc_core::hex::parse_hex(&self.bytes[self.pos..end])
            .ok_or_else(|| self.err("bad unicode escape"))?;
        self.pos = end;
        // Four hex digits fit a `u32` exactly.
        Ok(v as u32)
    }
}

/// Appends `v` in decimal without going through the `fmt` machinery or
/// a UTF-8 check: the form every in-place frame encoder (and the
/// write-ahead log's append path) uses.
// ltc-lint: hot-path
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    // Two digits per division, from the pair table.
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// `"00" "01" … "99"`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `text` to `out` as a JSON string literal (quotes included),
/// escaping the characters JSON requires.
pub fn push_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {

    #[test]
    fn push_u64_writes_what_to_string_writes() {
        let mut values = vec![0, 9, 10, 99, 100, u64::MAX];
        let mut p = 1u64;
        for _ in 0..20 {
            values.extend([p, p - 1, p + 1]);
            p = p.saturating_mul(10);
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values.push(state >> (state % 64));
        }
        let mut out = Vec::new();
        for v in values {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes(), "{v}");
        }
    }
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"op":"submit","x":"3fe0000000000000","ids":[1,2,3],"deep":{"a":null,"b":true},"n":42}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("submit"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("ids").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.get("deep").unwrap().get("a").unwrap().is_null());
        assert_eq!(v.get("deep").unwrap().get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn big_ids_do_not_pass_through_f64() {
        let v = parse(r#"{"worker":18446744073709551615}"#).unwrap();
        assert_eq!(v.get("worker").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn strings_round_trip_through_escaping() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newlines\nand\ttabs",
            "unicode ✓ → λ",
            "control \u{1} char",
        ] {
            let mut lit = String::new();
            push_escaped(&mut lit, s);
            let parsed = parse(&lit).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "round-tripping {s:?}");
        }
        // Raw astral-plane text and surrogate-pair escapes both decode.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    /// A snapshot reply carries its whole text as one string literal,
    /// so decoding a literal must cost one pass over it, not one pass
    /// over the rest of the frame per character.
    #[test]
    fn a_four_mib_string_literal_decodes_in_one_pass() {
        let line = "shard 0 3 0 index 403e000000000000 ✓ \"quoted\" \\ end\n";
        let text = line.repeat((4 << 20) / line.len() + 1);
        assert!(text.len() >= 4 << 20);
        let mut lit = String::new();
        push_escaped(&mut lit, &text);
        assert_eq!(parse(&lit).unwrap().as_str(), Some(text.as_str()));
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "{\"a\":1} trailing",
            "nan",
            "1e999",
            &("[".repeat(100) + &"]".repeat(100)),
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("\u{e9}"));
        assert_eq!(parse("\"\\u00E9\"").unwrap().as_str(), Some("\u{e9}"));
        // `from_str_radix` would read `+041` as 0x41.
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u004\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
