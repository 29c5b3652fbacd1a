//! Store clients: how a `DedupRuntime` reaches its `ResultStore`.
//!
//! Two deployments from the paper are supported:
//!
//! - [`InProcessClient`] — store co-located on the same machine (§IV-B:
//!   "we consider deploying ResultStore at the same machine of the
//!   outsourced applications"). Requests still traverse the attested
//!   [`SecureChannel`] so the same bytes are protected as in the remote
//!   case.
//! - [`TcpClient`] — store on a dedicated server over TCP (the two-machine
//!   evaluation setup; applications on several machines may share it).

use std::fmt;
use std::sync::Arc;

use speed_enclave::{Enclave, Platform};
use speed_store::server::TcpStoreClient;
use speed_store::ResultStore;
use speed_wire::{
    from_bytes, to_bytes, ChannelError, Message, SecureChannel, SessionAuthority,
};

use crate::error::CoreError;

/// A synchronous request/response connection to a `ResultStore`.
///
/// Implementations must be [`Send`]: a runtime keeps its client behind a
/// mutex and is shared between its callers' threads.
pub trait StoreClient: Send + fmt::Debug {
    /// Sends `request` and waits for the response.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on transport, channel, or protocol failure.
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError>;
}

/// An in-process client: requests are sealed through a [`SecureChannel`],
/// opened by the store-side channel end, handled, and the response sealed
/// back — byte-for-byte what would cross a network.
pub struct InProcessClient {
    store: Arc<ResultStore>,
    app_channel: SecureChannel,
    store_channel: SecureChannel,
}

impl fmt::Debug for InProcessClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcessClient")
            .field("sent", &self.app_channel.sent())
            .finish_non_exhaustive()
    }
}

impl InProcessClient {
    /// Runs the attested handshake between `app_enclave` and the store's
    /// enclave, both hosted on `platform`: one ECALL on each, with the
    /// quotes handed across directly instead of over a socket.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Channel`] if attestation fails.
    pub fn connect(
        store: Arc<ResultStore>,
        authority: &SessionAuthority,
        platform: &Platform,
        app_enclave: &Enclave,
    ) -> Result<Self, CoreError> {
        let mut store_channel = None;
        let app_channel = authority.connect(platform, app_enclave, |client_quote| {
            let (end, server_quote) =
                authority.accept(platform, store.enclave(), client_quote)?;
            store_channel = Some(end);
            Ok::<_, ChannelError>(server_quote)
        })?;
        let store_channel =
            store_channel.expect("connect returns only after the exchange accepted");
        Ok(InProcessClient { store, app_channel, store_channel })
    }
}

impl StoreClient for InProcessClient {
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
        let sealed = self.app_channel.seal_message(&to_bytes(request));
        let opened = self.store_channel.open_message(&sealed)?;
        let request: Message = from_bytes(&opened)?;
        let response = self.store.handle(request);
        let sealed_response = self.store_channel.seal_message(&to_bytes(&response));
        let response_bytes = self.app_channel.open_message(&sealed_response)?;
        Ok(from_bytes(&response_bytes)?)
    }
}

/// A TCP client for a remote [`speed_store::server::StoreServer`]: the
/// store's own [`TcpStoreClient`], whose errors convert into
/// [`CoreError::Store`].
pub use speed_store::server::TcpStoreClient as TcpClient;

impl StoreClient for TcpStoreClient {
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
        Ok(TcpStoreClient::roundtrip(self, request)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::CostModel;
    use speed_store::StoreConfig;
    use speed_wire::{AppId, CompTag};

    #[test]
    fn in_process_roundtrip() {
        let platform = Platform::new(CostModel::no_sgx());
        let store =
            Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
        let authority = SessionAuthority::with_seed(3);
        let enclave = platform.create_enclave(b"app").unwrap();
        let mut client =
            InProcessClient::connect(store, &authority, &platform, &enclave).unwrap();
        let response = client
            .roundtrip(&Message::GetRequest {
                app: AppId(1),
                tag: CompTag::from_bytes([0; 32]),
            })
            .unwrap();
        assert!(matches!(response, Message::GetResponse(b) if !b.found));
    }

    #[test]
    fn connecting_enters_each_enclave_once() {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
        let authority = SessionAuthority::with_seed(4);
        let enclave = platform.create_enclave(b"app").unwrap();
        let (app_before, store_before) =
            (enclave.stats().ecalls, store.enclave().stats().ecalls);
        let modeled_before = platform.clock().total_ns();
        InProcessClient::connect(Arc::clone(&store), &authority, &platform, &enclave)
            .unwrap();
        assert_eq!(enclave.stats().ecalls, app_before + 1);
        assert_eq!(store.enclave().stats().ecalls, store_before + 1);
        assert!(platform.clock().total_ns() > modeled_before, "it costs modeled time");
    }
}
