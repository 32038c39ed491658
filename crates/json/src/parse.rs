//! Recursive-descent JSON parser.
//!
//! Accepts RFC 8259 JSON, plus (by default) trailing commas and `//` line
//! comments, which the paper's own module listings use. Both extensions can be
//! disabled through [`ParseOptions`] for strict validation.

use crate::error::{ErrorKind, JsonError, Result};
use crate::number::Number;
use crate::value::{Map, Value};

/// Options controlling parser strictness and resource limits.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Allow a trailing comma before `]` or `}` (default `true`).
    pub allow_trailing_commas: bool,
    /// Allow `//` line comments (default `true`).
    pub allow_comments: bool,
    /// Reject documents whose nesting depth exceeds this limit (default 128).
    pub max_depth: usize,
    /// Reject objects containing duplicate keys (default `true`).
    ///
    /// Duplicate keys in a learning module are almost always an authoring
    /// mistake (e.g. two `traffic_matrix` fields), so they are rejected rather
    /// than silently last-one-wins.
    pub reject_duplicate_keys: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            allow_trailing_commas: true,
            allow_comments: true,
            max_depth: 128,
            reject_duplicate_keys: true,
        }
    }
}

/// Parse a JSON document with default options.
pub fn parse(input: &str) -> Result<Value> {
    parse_with_options(input, &ParseOptions::default())
}

/// Parse a JSON document with explicit options.
pub fn parse_with_options(input: &str, options: &ParseOptions) -> Result<Value> {
    let mut p = Parser::new(input, options.clone());
    let value = p.parse_value(0)?;
    p.skip_ws()?;
    if !p.at_end() {
        return Err(p.error(ErrorKind::TrailingContent));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
    options: ParseOptions,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, options: ParseOptions) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            options,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn error(&self, kind: ErrorKind) -> JsonError {
        JsonError::at(kind, self.line, self.col)
    }

    fn unexpected(&self, expected: &'static str) -> JsonError {
        match self.peek() {
            Some(b) => self.error(ErrorKind::UnexpectedChar(b as char, expected)),
            None => self.error(ErrorKind::UnexpectedEof),
        }
    }

    /// Skip whitespace and (if allowed) `//` comments.
    fn skip_ws(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') => {
                    self.bump();
                }
                Some(b'/') if self.options.allow_comments => {
                    if self.bytes.get(self.pos + 1) == Some(&b'/') {
                        while let Some(b) = self.peek() {
                            if b == b'\n' {
                                break;
                            }
                            self.bump();
                        }
                    } else {
                        return Err(self.unexpected("a JSON value"));
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn expect(&mut self, byte: u8, expected: &'static str) -> Result<()> {
        if self.peek() == Some(byte) {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        if depth > self.options.max_depth {
            return Err(self.error(ErrorKind::DepthLimitExceeded(self.options.max_depth)));
        }
        self.skip_ws()?;
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b'n') => self.parse_null(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.unexpected("a JSON value")),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{', "'{'")?;
        let mut map = Map::new();
        loop {
            self.skip_ws()?;
            match self.peek() {
                Some(b'}') => {
                    self.bump();
                    return Ok(Value::Object(map));
                }
                Some(b'"') => {
                    let key = self.parse_string()?;
                    self.skip_ws()?;
                    self.expect(b':', "':'")?;
                    let value = self.parse_value(depth + 1)?;
                    if map.contains_key(&key) && self.options.reject_duplicate_keys {
                        return Err(self.error(ErrorKind::DuplicateKey(key)));
                    }
                    map.insert(key, value);
                    self.skip_ws()?;
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                            if !self.options.allow_trailing_commas {
                                self.skip_ws()?;
                                if self.peek() == Some(b'}') {
                                    return Err(self.unexpected("an object key"));
                                }
                            }
                        }
                        Some(b'}') => {}
                        _ => return Err(self.unexpected("',' or '}'")),
                    }
                }
                _ => return Err(self.unexpected("an object key or '}'")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[', "'['")?;
        let mut items = Vec::new();
        loop {
            self.skip_ws()?;
            match self.peek() {
                Some(b']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                Some(_) => {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws()?;
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                            if !self.options.allow_trailing_commas {
                                self.skip_ws()?;
                                if self.peek() == Some(b']') {
                                    return Err(self.unexpected("a JSON value"));
                                }
                            }
                        }
                        Some(b']') => {}
                        _ => return Err(self.unexpected("',' or ']'")),
                    }
                }
                None => return Err(self.error(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error(ErrorKind::UnexpectedEof)),
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    let esc = self
                        .bump()
                        .ok_or_else(|| self.error(ErrorKind::UnexpectedEof))?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            if (0xD800..=0xDBFF).contains(&cp) {
                                // High surrogate: expect a low surrogate escape.
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.error(ErrorKind::InvalidUnicode(cp)));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.error(ErrorKind::InvalidUnicode(low)));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                match char::from_u32(combined) {
                                    Some(c) => out.push(c),
                                    None => {
                                        return Err(self.error(ErrorKind::InvalidUnicode(combined)))
                                    }
                                }
                            } else if (0xDC00..=0xDFFF).contains(&cp) {
                                return Err(self.error(ErrorKind::InvalidUnicode(cp)));
                            } else {
                                match char::from_u32(cp) {
                                    Some(c) => out.push(c),
                                    None => return Err(self.error(ErrorKind::InvalidUnicode(cp))),
                                }
                            }
                        }
                        other => {
                            return Err(self
                                .error(ErrorKind::InvalidEscape(format!("\\{}", other as char))))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error(ErrorKind::UnexpectedChar(
                        b as char,
                        "escaped control character",
                    )))
                }
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences: the input came from a
                    // &str so it is valid UTF-8; copy continuation bytes verbatim.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        for _ in 1..width {
                            self.bump();
                        }
                        let end = (start + width).min(self.bytes.len());
                        out.push_str(&String::from_utf8_lossy(&self.bytes[start..end]));
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut cp: u32 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error(ErrorKind::UnexpectedEof))?;
            let digit = (b as char).to_digit(16).ok_or_else(|| {
                self.error(ErrorKind::InvalidEscape(format!(
                    "\\u with non-hex digit {}",
                    b as char
                )))
            })?;
            cp = cp * 16 + digit;
        }
        Ok(cp)
    }

    fn parse_bool(&mut self) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(b"true") {
            for _ in 0..4 {
                self.bump();
            }
            Ok(Value::Bool(true))
        } else if self.bytes[self.pos..].starts_with(b"false") {
            for _ in 0..5 {
                self.bump();
            }
            Ok(Value::Bool(false))
        } else {
            Err(self.error(ErrorKind::InvalidLiteral(self.literal_preview())))
        }
    }

    fn parse_null(&mut self) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(b"null") {
            for _ in 0..4 {
                self.bump();
            }
            Ok(Value::Null)
        } else {
            Err(self.error(ErrorKind::InvalidLiteral(self.literal_preview())))
        }
    }

    fn literal_preview(&self) -> String {
        let end = (self.pos + 8).min(self.bytes.len());
        String::from_utf8_lossy(&self.bytes[self.pos..end]).into_owned()
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => {
                self.bump();
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
            _ => return Err(self.unexpected("a digit")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.unexpected("a digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.unexpected("a digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        // Every byte consumed above is ASCII, so the slice is valid UTF-8;
        // a lossy view is identical and cannot panic.
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        let text = text.as_ref();
        if is_float {
            text.parse::<f64>()
                .map(|f| Value::Number(Number::Float(f)))
                .map_err(|_| self.error(ErrorKind::InvalidNumber(text.to_string())))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Number(Number::Int(i))),
                // Overflowing integers fall back to float, as most parsers do.
                Err(_) => text
                    .parse::<f64>()
                    .map(|f| Value::Number(Number::Float(f)))
                    .map_err(|_| self.error(ErrorKind::InvalidNumber(text.to_string()))),
            }
        }
    }
}

fn utf8_width(first_byte: u8) -> usize {
    if first_byte >= 0xF0 {
        4
    } else if first_byte >= 0xE0 {
        3
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Value {
        parse(s).unwrap()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(p("null"), Value::Null);
        assert_eq!(p("true"), Value::Bool(true));
        assert_eq!(p("false"), Value::Bool(false));
        assert_eq!(p("42").as_i64(), Some(42));
        assert_eq!(p("-7").as_i64(), Some(-7));
        assert_eq!(p("3.25").as_f64(), Some(3.25));
        assert_eq!(p("1e3").as_f64(), Some(1000.0));
        assert_eq!(p("-2.5E-1").as_f64(), Some(-0.25));
        assert_eq!(p(r#""hello""#).as_str(), Some("hello"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = p(r#"{"a": [1, {"b": [true, null]}], "c": "d"}"#);
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_i64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().at(1).unwrap().get("b").unwrap().at(1),
            Some(&Value::Null)
        );
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn parses_string_escapes() {
        assert_eq!(p(r#""a\nb\t\"c\"\\""#).as_str(), Some("a\nb\t\"c\"\\"));
        assert_eq!(p(r#""Aé""#).as_str(), Some("Aé"));
        // Surrogate pair for U+1F600.
        assert_eq!(p(r#""😀""#).as_str(), Some("😀"));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(p(r#""héllo — ok""#).as_str(), Some("héllo — ok"));
    }

    #[test]
    fn rejects_lone_surrogate() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_bad_escapes_and_control_chars() {
        assert!(parse(r#""\x41""#).is_err());
        assert!(parse("\"a\nb\"").is_err());
        assert!(parse(r#""\u00g1""#).is_err());
    }

    #[test]
    fn trailing_commas_allowed_by_default() {
        let v = p("[1, 2, 3,]");
        assert_eq!(v.as_array().unwrap().len(), 3);
        let v = p(r#"{"a": 1,}"#);
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn strict_mode_rejects_trailing_commas_and_comments() {
        let opts = ParseOptions {
            allow_trailing_commas: false,
            allow_comments: false,
            ..ParseOptions::default()
        };
        assert!(parse_with_options("[1, 2,]", &opts).is_err());
        assert!(parse_with_options("// c\n1", &opts).is_err());
        assert!(parse_with_options("[1, 2]", &opts).is_ok());
    }

    #[test]
    fn comments_allowed_by_default() {
        let v = p("// module header\n{\"a\": 1 // trailing\n}");
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn rejects_trailing_content() {
        let err = parse("1 2").unwrap_err();
        assert_eq!(err.kind(), &ErrorKind::TrailingContent);
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::DuplicateKey(k) if k == "a"));
        let opts = ParseOptions {
            reject_duplicate_keys: false,
            ..ParseOptions::default()
        };
        let v = parse_with_options(r#"{"a": 1, "a": 2}"#, &opts).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut doc = String::new();
        for _ in 0..300 {
            doc.push('[');
        }
        doc.push('1');
        for _ in 0..300 {
            doc.push(']');
        }
        let err = parse(&doc).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::DepthLimitExceeded(_)));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("{\n  \"a\": ,\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column >= 8, "column was {}", err.column);
    }

    #[test]
    fn rejects_incomplete_documents() {
        for doc in [
            "{", "[", "[1,", "{\"a\":", "\"abc", "tru", "nul", "-", "1.", "1e",
        ] {
            assert!(parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn rejects_leading_zero_followed_by_digits_as_trailing() {
        // "01" parses the 0 then finds trailing content, per RFC 8259 number grammar.
        assert!(parse("01").is_err());
    }

    #[test]
    fn huge_integer_falls_back_to_float() {
        let v = p("123456789012345678901234567890");
        assert!(v.as_f64().unwrap() > 1e29);
    }

    #[test]
    fn parses_paper_traffic_matrix_listing() {
        let src = r#"{
            "traffic_matrix":[
                [1,0,0,0,0,0,0,0,0,2],
                [0,1,0,0,0,0,0,0,2,0],
                [0,0,1,0,0,0,0,2,0,0],
                [0,0,0,1,0,0,2,0,0,0],
                [0,0,0,0,1,2,0,0,0,0],
                [0,0,0,0,2,1,0,0,0,0],
                [0,0,0,2,0,0,1,0,0,0],
                [0,0,2,0,0,0,0,1,0,0],
                [0,2,0,0,0,0,0,0,1,0],
                [2,0,0,0,0,0,0,0,0,1],
            ],
        }"#;
        let grid = p(src).get("traffic_matrix").unwrap().as_u32_grid().unwrap();
        assert_eq!(grid.len(), 10);
        assert_eq!(grid[0][9], 2);
        assert_eq!(grid[9][0], 2);
        assert!(grid.iter().all(|r| r.len() == 10));
    }
}
