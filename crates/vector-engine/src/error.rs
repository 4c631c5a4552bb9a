//! Engine error type.

use std::fmt;

/// All errors the engine surfaces to callers.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Lexer/parser rejected the SQL text.
    Parse(String),
    /// Name resolution or semantic analysis failed.
    Plan(String),
    /// Type mismatch detected during planning or execution.
    Type(String),
    /// Runtime execution failure.
    Execution(String),
    /// Catalog problem (unknown/duplicate table, schema mismatch, ...).
    Catalog(String),
    /// A feature the engine deliberately does not support.
    Unsupported(String),
    /// Persistent-storage failure: filesystem IO, a checksum-rejected
    /// (torn) page or WAL record, or buffer-pool exhaustion.
    Io(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(m) => write!(f, "parse error: {m}"),
            EngineError::Plan(m) => write!(f, "planning error: {m}"),
            EngineError::Type(m) => write!(f, "type error: {m}"),
            EngineError::Execution(m) => write!(f, "execution error: {m}"),
            EngineError::Catalog(m) => write!(f, "catalog error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Io(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<storage::StorageError> for EngineError {
    fn from(e: storage::StorageError) -> EngineError {
        EngineError::Io(e.to_string())
    }
}

impl From<sched::TaskPanicked> for EngineError {
    fn from(e: sched::TaskPanicked) -> EngineError {
        EngineError::Execution(e.to_string())
    }
}

/// Convenience alias used across the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = EngineError::Parse("unexpected token".into());
        assert_eq!(e.to_string(), "parse error: unexpected token");
        let e = EngineError::Unsupported("outer joins".into());
        assert!(e.to_string().starts_with("unsupported:"));
    }
}
