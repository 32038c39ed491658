//! Error type shared by the parser and serializer.

use std::fmt;

/// Result alias used throughout `tw-json`.
pub type Result<T> = std::result::Result<T, JsonError>;

/// An error produced while parsing JSON.
///
/// Errors carry a line/column position (1-based) so an educator editing a
/// learning-module file by hand gets an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    kind: ErrorKind,
    /// 1-based line of the offending character, 0 when not applicable.
    pub line: usize,
    /// 1-based column of the offending character, 0 when not applicable.
    pub column: usize,
}

/// The category of a [`JsonError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The document ended while a value was still being parsed.
    UnexpectedEof,
    /// An unexpected character was found; contains the character and what was expected.
    UnexpectedChar(char, &'static str),
    /// A number literal could not be parsed.
    InvalidNumber(String),
    /// A string literal contains an invalid escape sequence.
    InvalidEscape(String),
    /// A `\u` escape did not form a valid Unicode scalar value.
    InvalidUnicode(u32),
    /// A literal such as `true`/`false`/`null` was misspelled.
    InvalidLiteral(String),
    /// Trailing non-whitespace content after the top-level value.
    TrailingContent,
    /// Nesting depth exceeded [`super::ParseOptions::max_depth`].
    DepthLimitExceeded(usize),
    /// A duplicate object key was encountered and duplicates are rejected.
    DuplicateKey(String),
}

impl JsonError {
    /// Construct an error at a known position.
    pub fn at(kind: ErrorKind, line: usize, column: usize) -> Self {
        JsonError { kind, line, column }
    }

    /// Construct an error with no position information.
    pub fn new(kind: ErrorKind) -> Self {
        JsonError {
            kind,
            line: 0,
            column: 0,
        }
    }

    /// The category of this error.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnexpectedEof => write!(f, "unexpected end of input")?,
            ErrorKind::UnexpectedChar(c, expected) => {
                write!(f, "unexpected character {c:?}, expected {expected}")?
            }
            ErrorKind::InvalidNumber(s) => write!(f, "invalid number literal {s:?}")?,
            ErrorKind::InvalidEscape(s) => write!(f, "invalid escape sequence {s:?}")?,
            ErrorKind::InvalidUnicode(cp) => write!(f, "invalid unicode escape U+{cp:04X}")?,
            ErrorKind::InvalidLiteral(s) => write!(f, "invalid literal {s:?}")?,
            ErrorKind::TrailingContent => write!(f, "trailing content after JSON value")?,
            ErrorKind::DepthLimitExceeded(d) => write!(f, "nesting depth exceeds limit of {d}")?,
            ErrorKind::DuplicateKey(k) => write!(f, "duplicate object key {k:?}")?,
        }
        if self.line > 0 {
            write!(f, " at line {} column {}", self.line, self.column)?;
        }
        Ok(())
    }
}

impl std::error::Error for JsonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = JsonError::at(ErrorKind::TrailingContent, 3, 7);
        let msg = e.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("column 7"), "{msg}");
    }

    #[test]
    fn display_without_position() {
        let e = JsonError::new(ErrorKind::InvalidLiteral("nul".into()));
        assert!(!e.to_string().contains("line"));
    }

    #[test]
    fn kind_accessor() {
        let e = JsonError::new(ErrorKind::DuplicateKey("size".into()));
        assert_eq!(e.kind(), &ErrorKind::DuplicateKey("size".into()));
    }
}
