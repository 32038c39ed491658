//! Error type for learning-module parsing, validation and bundle I/O.

use std::fmt;

/// Result alias for module operations.
pub type Result<T> = std::result::Result<T, ModuleError>;

/// Errors produced while reading, writing or validating learning modules.
#[derive(Debug, Clone, PartialEq)]
pub enum ModuleError {
    /// The module file is not valid JSON.
    Json(tw_json::JsonError),
    /// The module bundle is not a valid archive.
    Archive(tw_archive::ArchiveError),
    /// A matrix in the module is malformed.
    Matrix(tw_matrix::MatrixError),
    /// A required field is missing; contains the field name.
    MissingField(&'static str),
    /// A field has the wrong JSON type; contains (field, expected type).
    WrongType(&'static str, &'static str),
    /// The `size` string is not of the form `"NxN"`.
    BadSize(String),
    /// The module failed semantic validation; contains the first error message.
    Invalid(String),
    /// A bundle entry is not a module JSON file; contains the entry name.
    NotAModuleFile(String),
    /// The bundle contains no modules.
    EmptyBundle,
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Json(e) => write!(f, "module JSON error: {e}"),
            ModuleError::Archive(e) => write!(f, "module bundle error: {e}"),
            ModuleError::Matrix(e) => write!(f, "module matrix error: {e}"),
            ModuleError::MissingField(field) => write!(f, "module is missing the {field:?} field"),
            ModuleError::WrongType(field, expected) => {
                write!(f, "module field {field:?} must be {expected}")
            }
            ModuleError::BadSize(s) => {
                write!(
                    f,
                    "module size {s:?} is not of the form \"NxN\" (e.g. \"10x10\")"
                )
            }
            ModuleError::Invalid(msg) => write!(f, "module failed validation: {msg}"),
            ModuleError::NotAModuleFile(name) => {
                write!(
                    f,
                    "bundle entry {name:?} is not a learning-module JSON file"
                )
            }
            ModuleError::EmptyBundle => write!(f, "module bundle contains no learning modules"),
        }
    }
}

impl std::error::Error for ModuleError {}

impl From<tw_json::JsonError> for ModuleError {
    fn from(e: tw_json::JsonError) -> Self {
        ModuleError::Json(e)
    }
}

impl From<tw_archive::ArchiveError> for ModuleError {
    fn from(e: tw_archive::ArchiveError) -> Self {
        ModuleError::Archive(e)
    }
}

impl From<tw_matrix::MatrixError> for ModuleError {
    fn from(e: tw_matrix::MatrixError) -> Self {
        ModuleError::Matrix(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_field() {
        assert!(ModuleError::MissingField("traffic_matrix")
            .to_string()
            .contains("traffic_matrix"));
        assert!(ModuleError::WrongType("answers", "an array of strings")
            .to_string()
            .contains("answers"));
        assert!(ModuleError::BadSize("10by10".into())
            .to_string()
            .contains("NxN"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let j: ModuleError = tw_json::parse("{").unwrap_err().into();
        assert!(matches!(j, ModuleError::Json(_)));
        let a: ModuleError = tw_archive::ZipReader::parse(std::io::Cursor::new(b"junk"))
            .unwrap_err()
            .into();
        assert!(matches!(a, ModuleError::Archive(_)));
    }
}
