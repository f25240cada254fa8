//! Offline stand-in for `serde_json`: renders and parses JSON text against
//! the value tree of the vendored `serde` stub.

#![forbid(unsafe_code)]

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser::new(text.as_bytes());
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::from_value(&value)
}

// ---- writer ----------------------------------------------------------------

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => write_u64(*x, out),
        Value::I64(x) => {
            if *x < 0 {
                out.push('-');
            }
            write_u64(x.unsigned_abs(), out);
        }
        Value::F64(x) => {
            if x.is_finite() {
                // `{:?}` keeps a decimal point or exponent so the value
                // re-parses as a float, and round-trips f64 exactly.
                // Formatting into a `String` cannot fail.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

/// Decimal digits of `x`, written without an intermediate `String`.
fn write_u64(mut x: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * level));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8 sequences and are copied in one piece.
    let mut start = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

// ---- parser ----------------------------------------------------------------

/// The deepest array/object nesting the parser accepts. It recurses once
/// per level, so deeper input is refused with an error instead of
/// overflowing the stack of whatever thread is decoding.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    /// Enters one array/object level, refusing nesting past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "recursion limit exceeded: nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::custom("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::custom("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::custom("invalid literal"))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::custom(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash as one
            // run, validated once.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&rest[..run]).map_err(|_| Error::custom("invalid UTF-8"))?,
            );
            self.pos += run;
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let Some(&escape) = self.bytes.get(self.pos) else {
                        return Err(Error::custom("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let digits = &self.bytes[start..self.pos];
        // An unsigned run of at most 19 digits is all ASCII digits here
        // (any sign or float byte sets `is_float` or sits at `start`) and
        // cannot overflow u64, so it folds directly. Everything else takes
        // the general path below, which yields the same `Value` variants.
        if !is_float && digits.len() <= 19 && digits[0] != b'-' {
            let value = digits
                .iter()
                .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'));
            return Ok(Value::U64(value));
        }
        let text = std::str::from_utf8(digits).map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        self.descend()?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::custom("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let value = Value::Object(vec![
            ("name".into(), Value::Str("hello \"world\"\n".into())),
            ("count".into(), Value::U64(42)),
            ("offset".into(), Value::I64(-3)),
            ("ratio".into(), Value::F64(0.125)),
            ("big".into(), Value::F64(1.0e-7)),
            ("flag".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
            (
                "items".into(),
                Value::Array(vec![Value::U64(1), Value::F64(2.5), Value::Str("x".into())]),
            ),
            ("empty_arr".into(), Value::Array(vec![])),
            ("empty_obj".into(), Value::Object(vec![])),
        ]);

        struct Wrap(Value);
        impl serde::Serialize for Wrap {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        impl serde::Deserialize for Wrap {
            fn from_value(v: &Value) -> Result<Self, Error> {
                Ok(Wrap(v.clone()))
            }
        }

        for text in [
            to_string(&Wrap(value.clone())).unwrap(),
            to_string_pretty(&Wrap(value.clone())).unwrap(),
        ] {
            let parsed: Wrap = from_str(&text).unwrap();
            assert_eq!(parsed.0, value);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [1.0_f64, 0.1, 1e300, 5e-324, -2.5e-9, 123_456_789.123_456_79] {
            struct W(f64);
            impl serde::Serialize for W {
                fn to_value(&self) -> Value {
                    Value::F64(self.0)
                }
            }
            let text = to_string(&W(x)).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "text {text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1.2.3").is_err());
        assert!(from_str::<f64>("[1").is_err());
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }

    // ---- reference oracles: the `format!`/`str::parse` code the writer
    // and the number parser replaced, kept to pin byte-for-byte and
    // value-for-value equivalence.

    fn reference_write(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
        let newline_indent = |out: &mut String, level: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * level));
            }
        };
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(x) => out.push_str(&x.to_string()),
            Value::I64(x) => out.push_str(&x.to_string()),
            Value::F64(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => reference_string(s, out),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, level + 1);
                    reference_write(item, out, indent, level + 1);
                }
                newline_indent(out, level);
                out.push(']');
            }
            Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, level + 1);
                    reference_string(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    reference_write(item, out, indent, level + 1);
                }
                newline_indent(out, level);
                out.push('}');
            }
        }
    }

    fn reference_string(s: &str, out: &mut String) {
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

    fn reference_number(text: &str) -> Result<Value, Error> {
        let is_float = text.bytes().skip(1).any(|b| !b.is_ascii_digit());
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    fn parse_raw(bytes: &[u8]) -> Result<Value, Error> {
        let mut parser = Parser::new(bytes);
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != bytes.len() {
            return Err(Error::custom("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// xorshift64*: a tiny deterministic generator for random value trees.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_f64(rng: &mut Rng) -> f64 {
        match rng.below(6) {
            // Any bit pattern: normals at every exponent, NaN, infinities.
            0 => f64::from_bits(rng.next()),
            // Subnormals.
            1 => f64::from_bits(rng.below(1 << 52)),
            2 => (rng.next() >> 11) as f64 * 10f64.powi(rng.below(40) as i32 - 20),
            3 => [
                0.0,
                -0.0,
                1.0,
                0.1,
                1e16,
                1e15,
                1e-7,
                1e-5,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                f64::EPSILON,
                5e-324,
            ][rng.below(13) as usize],
            4 => rng.below(1000) as f64 / 8.0,
            _ => -((rng.next() >> 11) as f64) / (1u64 << 53) as f64,
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        const CHARS: [char; 16] = [
            'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '名', '🦀',
        ];
        (0..rng.below(12))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        let kinds = if depth >= 4 { 7 } else { 9 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::U64(match rng.below(3) {
                0 => u64::MAX,
                1 => rng.below(1000),
                _ => rng.next(),
            }),
            3 => Value::I64(match rng.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => -(rng.below(1000) as i64),
                _ => rng.next() as i64,
            }),
            4 | 5 => Value::F64(random_f64(rng)),
            6 => Value::Str(random_string(rng)),
            7 => Value::Array(
                (0..rng.below(5))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    struct Raw(Value);
    impl serde::Serialize for Raw {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        #[test]
        fn writer_bytes_equal_the_format_reference(seed in 1u64..u64::MAX) {
            let value = random_value(&mut Rng(seed), 0);
            for indent in [None, Some(2)] {
                let mut reference = String::new();
                reference_write(&value, &mut reference, indent, 0);
                let rendered = match indent {
                    None => to_string(&Raw(value.clone())).unwrap(),
                    Some(_) => to_string_pretty(&Raw(value.clone())).unwrap(),
                };
                proptest::prop_assert_eq!(rendered, reference);
            }
        }

        #[test]
        fn integer_parsing_matches_the_str_parse_reference(
            negative in 0u8..2,
            digits in proptest::collection::vec(0u8..10, 1..26),
        ) {
            let mut text = String::from(if negative == 1 { "-" } else { "" });
            text.extend(digits.iter().map(|&d| char::from(b'0' + d)));
            proptest::prop_assert_eq!(
                parse_raw(text.as_bytes()).ok(),
                reference_number(&text).ok(),
                "{}", text
            );
        }

        #[test]
        fn strings_round_trip_through_the_run_scanner(seed in 1u64..u64::MAX) {
            let s = random_string(&mut Rng(seed));
            let mut text = String::new();
            reference_string(&s, &mut text);
            proptest::prop_assert_eq!(parse_raw(text.as_bytes()).unwrap(), Value::Str(s));
        }
    }

    #[test]
    fn writer_edge_values_equal_the_format_reference() {
        let values = [
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(0),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::I64(-1),
            Value::F64(5e-324),
            Value::F64(f64::from_bits(0x000F_FFFF_FFFF_FFFF)),
            Value::F64(1e21),
            Value::F64(-1.5e-300),
            Value::F64(f64::NAN),
            Value::F64(f64::NEG_INFINITY),
            Value::Str("\u{0}\u{1}\u{1f} tab\t \"quoted\" back\\slash é名🦀".into()),
        ];
        for value in values {
            let mut reference = String::new();
            reference_write(&value, &mut reference, None, 0);
            assert_eq!(to_string(&Raw(value.clone())).unwrap(), reference);
        }
    }

    #[test]
    fn number_edge_cases_parse_as_before() {
        for text in [
            "0",
            "0123",
            "1234567890123456789",
            "9999999999999999999",
            "12345678901234567890",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "-0",
            "-1",
            "-9223372036854775808",
            "-9223372036854775809",
            "-",
            "1.5",
            "-2.5e-3",
            "1e400",
            "1+2",
            "1.2.3",
        ] {
            let parsed = parse_raw(text.as_bytes());
            let reference = reference_number(text);
            assert_eq!(parsed.is_ok(), reference.is_ok(), "{text}");
            if let (Ok(a), Ok(b)) = (&parsed, &reference) {
                match (a, b) {
                    (Value::F64(x), Value::F64(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    _ => assert_eq!(a, b, "{text}"),
                }
            }
        }
        assert_eq!(
            parse_raw(b"18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
        assert_eq!(
            parse_raw(b"18446744073709551616").unwrap(),
            Value::F64(18446744073709551616.0)
        );
        assert_eq!(parse_raw(b"-5").unwrap(), Value::I64(-5));
    }

    #[test]
    fn string_edge_cases_are_typed_errors() {
        // Invalid UTF-8 inside a string, a lone backslash at end of
        // input, an escape cut short, and an unterminated string.
        assert!(parse_raw(b"\"ab\xff\xfecd\"").is_err());
        assert!(parse_raw(b"\"abc\\").is_err());
        assert!(parse_raw(b"\"\\u12").is_err());
        assert!(parse_raw(b"\"abc").is_err());
        assert!(from_str::<String>("\"abc\\").is_err());
        assert_eq!(
            from_str::<String>("\"a\\u00e9\\n\\\"名\"").unwrap(),
            "a\u{e9}\n\"名"
        );
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Far past the cap, open brackets only: an error, never a stack
        // overflow.
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }
}
