use std::error::Error;
use std::fmt;

/// Errors from the deduplication runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The described function is not present in any registered trusted
    /// library — the runtime cannot verify the application owns the code.
    FunctionNotTrusted {
        /// Library family named in the description.
        library: String,
        /// Function signature named in the description.
        signature: String,
    },
    /// Result recovery failed the Fig. 3 verification protocol: this
    /// application does not own the same `(func, m)` as the initial
    /// computation, or the stored data was corrupted.
    VerificationFailed,
    /// The store rejected or garbled a request.
    Store(speed_store::StoreError),
    /// A wire-level encoding/decoding failure.
    Wire(speed_wire::WireError),
    /// A secure-channel failure between runtime and store.
    Channel(speed_wire::ChannelError),
    /// The application's enclave could not be created or ran out of EPC.
    Enclave(speed_enclave::EnclaveError),
    /// The store replied with an unexpected message kind.
    UnexpectedResponse(String),
    /// The store could not be reached even after the resilience layer's
    /// retries/reconnects, or its circuit breaker is open. The runtime
    /// degrades gracefully on this error (local execution for GETs, replay
    /// queueing for PUTs) instead of surfacing it to the application.
    StoreUnavailable(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::FunctionNotTrusted { library, signature } => write!(
                f,
                "function `{signature}` from library `{library}` is not in any \
                 registered trusted library"
            ),
            CoreError::VerificationFailed => write!(
                f,
                "result verification failed: not the same computation, or \
                 stored data corrupted"
            ),
            CoreError::Store(e) => write!(f, "store error: {e}"),
            CoreError::Wire(e) => write!(f, "wire error: {e}"),
            CoreError::Channel(e) => write!(f, "channel error: {e}"),
            CoreError::Enclave(e) => write!(f, "enclave error: {e}"),
            CoreError::UnexpectedResponse(what) => {
                write!(f, "unexpected store response: {what}")
            }
            CoreError::StoreUnavailable(why) => {
                write!(f, "store unavailable: {why}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Store(e) => Some(e),
            CoreError::Wire(e) => Some(e),
            CoreError::Channel(e) => Some(e),
            CoreError::Enclave(e) => Some(e),
            _ => None,
        }
    }
}

impl From<speed_store::StoreError> for CoreError {
    fn from(e: speed_store::StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<speed_wire::WireError> for CoreError {
    fn from(e: speed_wire::WireError) -> Self {
        CoreError::Wire(e)
    }
}

impl From<speed_wire::ChannelError> for CoreError {
    fn from(e: speed_wire::ChannelError) -> Self {
        CoreError::Channel(e)
    }
}

impl From<speed_enclave::EnclaveError> for CoreError {
    fn from(e: speed_enclave::EnclaveError) -> Self {
        CoreError::Enclave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = CoreError::FunctionNotTrusted {
            library: "zlib".into(),
            signature: "int deflate(...)".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("zlib"));
        assert!(msg.contains("deflate"));
        assert!(!CoreError::VerificationFailed.to_string().is_empty());
    }

    #[test]
    fn conversions_preserve_source() {
        let err: CoreError = speed_wire::WireError::InvalidUtf8.into();
        assert!(err.source().is_some());
        let err: CoreError = speed_enclave::EnclaveError::UnsealFailed.into();
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
