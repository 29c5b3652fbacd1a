use std::error::Error;
use std::fmt;

/// Errors surfaced by the `ResultStore`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The store's enclave could not commit memory for metadata.
    Enclave(speed_enclave::EnclaveError),
    /// A PUT was rejected by quota enforcement.
    QuotaExceeded {
        /// The offending application.
        app: u64,
        /// Why the quota tripped.
        reason: String,
    },
    /// An I/O failure in the TCP front end.
    Io(String),
    /// A protocol violation (bad frame, wrong message kind, failed channel).
    Protocol(String),
    /// The server refused the connection because its connection budget is
    /// saturated. Transient by design — clients should back off and retry.
    Busy(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Enclave(e) => write!(f, "store enclave error: {e}"),
            StoreError::QuotaExceeded { app, reason } => {
                write!(f, "quota exceeded for app {app}: {reason}")
            }
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Protocol(e) => write!(f, "store protocol error: {e}"),
            StoreError::Busy(reason) => write!(f, "store busy: {reason}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Enclave(e) => Some(e),
            _ => None,
        }
    }
}

impl From<speed_enclave::EnclaveError> for StoreError {
    fn from(e: speed_enclave::EnclaveError) -> Self {
        StoreError::Enclave(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// A failed handshake or sealed frame is a protocol violation.
impl From<speed_wire::ChannelError> for StoreError {
    fn from(e: speed_wire::ChannelError) -> Self {
        StoreError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StoreError::Io("broken pipe".into()).to_string().contains("broken pipe"));
        assert!(StoreError::QuotaExceeded { app: 3, reason: "too many puts".into() }
            .to_string()
            .contains("app 3"));
        assert!(StoreError::Protocol("bad frame".into())
            .to_string()
            .contains("bad frame"));
    }

    #[test]
    fn enclave_error_converts_with_source() {
        let err: StoreError = speed_enclave::EnclaveError::UnsealFailed.into();
        assert!(err.source().is_some());
    }
}
