//! Error types for the storage layer.

use crate::schema::Schema;
use std::fmt;

/// Errors raised by storage-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A row's arity did not match the relation schema it was inserted into.
    ArityMismatch {
        /// Name of the relation (if known).
        relation: String,
        /// Expected arity from the schema.
        expected: usize,
        /// Arity of the offending row.
        actual: usize,
    },
    /// Two relations were combined with incompatible schemas.
    SchemaMismatch {
        /// Schema of the left operand.
        left: Schema,
        /// Schema of the right operand.
        right: Schema,
        /// The operation that failed.
        operation: &'static str,
    },
    /// A named relation was not found in the database.
    UnknownRelation(String),
    /// A named attribute was not found in a schema.
    UnknownAttribute {
        /// The missing attribute's name.
        attr: String,
        /// The schema that was searched.
        schema: Schema,
    },
    /// A relation with the same name was registered twice.
    DuplicateRelation(String),
    /// An I/O failure while reading or writing a serialized artifact.  Carries
    /// the rendered [`std::io::Error`] (this enum is `Clone + Eq`, the source
    /// error is neither).
    Io(String),
    /// A serialized artifact failed structural validation: bad magic, a
    /// checksum mismatch, or truncated input.
    Corrupt {
        /// Which artifact was being read (`"checkpoint"` or `"write-ahead log"`).
        artifact: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A serialized artifact was written by an unknown (newer) format version.
    UnsupportedVersion {
        /// Which artifact was being read.
        artifact: &'static str,
        /// The version byte found in the header.
        found: u8,
        /// The newest version this build understands.
        supported: u8,
    },
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch in relation `{relation}`: schema has {expected} attributes, row has {actual}"
            ),
            StorageError::SchemaMismatch {
                left,
                right,
                operation,
            } => write!(
                f,
                "schema mismatch in {operation}: left {left}, right {right}"
            ),
            StorageError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            StorageError::UnknownAttribute { attr, schema } => {
                write!(f, "attribute `{attr}` not found in schema {schema}")
            }
            StorageError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` is already registered")
            }
            StorageError::Io(msg) => write!(f, "i/o error: {msg}"),
            StorageError::Corrupt { artifact, detail } => {
                write!(f, "corrupt {artifact}: {detail}")
            }
            StorageError::UnsupportedVersion {
                artifact,
                found,
                supported,
            } => write!(
                f,
                "{artifact} written by format version {found}, but this build supports up to {supported}"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::ArityMismatch {
            relation: "Graph".into(),
            expected: 2,
            actual: 3,
        };
        assert!(e.to_string().contains("Graph"));
        assert!(e.to_string().contains('2'));
        assert!(e.to_string().contains('3'));

        let e = StorageError::UnknownRelation("Triple".into());
        assert!(e.to_string().contains("Triple"));

        let e = StorageError::UnknownAttribute {
            attr: "x9".into(),
            schema: Schema::from_names(["x1", "x2"]),
        };
        assert!(e.to_string().contains("x9"));
        assert!(e.to_string().contains("x1"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&StorageError::DuplicateRelation("R".into()));
    }
}
