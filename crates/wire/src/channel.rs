//! The attested secure channel between `DedupRuntime` and `ResultStore`.
//!
//! The paper sends tags and records "via a secure channel" (Algorithm 1,
//! line 2) established between mutually attested enclaves. Real SGX
//! deployments run an attested key exchange (e.g. SIGMA over local reports,
//! or attested TLS for remote stores). Without public-key primitives in
//! scope, the simulator models the trusted third party that endorses the
//! exchange: a [`SessionAuthority`] verifies both parties' quotes and issues
//! the same session key to each side, after which all traffic is protected
//! with AES-GCM under strictly monotonic sequence-number nonces
//! (anti-replay, anti-reorder).

use std::error::Error;
use std::fmt;

use speed_crypto::{hkdf, AesGcm128, CryptoError, Key128, Nonce, SystemRng};
use speed_enclave::attestation::{
    create_report, AttestationService, Quote, REPORT_DATA_LEN,
};
use speed_enclave::{Enclave, EnclaveError, Platform};

/// Version of the wire protocol: the message set and what each body means.
///
/// The TCP handshake attests it ([`handshake_report_data`]), and each side
/// refuses a peer that attests another version before any data-plane
/// frame. Version 1 keys the negative filters by the comp-tag and drops the
/// prefilter-carrying batch items.
pub const PROTOCOL_VERSION: u32 = 1;

/// The report data each side of a handshake attests: [`PROTOCOL_VERSION`],
/// little-endian, in the first four bytes.
pub fn handshake_report_data() -> [u8; REPORT_DATA_LEN] {
    let mut data = [0u8; REPORT_DATA_LEN];
    data[..4].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    data
}

/// The protocol version a quote attests: 0 for a peer that predates the
/// field and attests all-zero report data.
pub fn attested_version(quote: &Quote) -> u32 {
    u32::from_le_bytes(quote.report_data[..4].try_into().expect("4 bytes"))
}

/// Errors from secure-channel establishment or record protection.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChannelError {
    /// A peer's quote failed verification.
    Attestation(EnclaveError),
    /// A sealed message failed authentication.
    Crypto(CryptoError),
    /// A message arrived with an out-of-window sequence number (replay or
    /// reordering).
    BadSequence {
        /// Sequence number expected next.
        expected: u64,
        /// Sequence number carried by the message.
        actual: u64,
    },
    /// The sealed message was too short to contain its header.
    Malformed,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Attestation(e) => write!(f, "channel attestation failed: {e}"),
            ChannelError::Crypto(e) => write!(f, "channel crypto failed: {e}"),
            ChannelError::BadSequence { expected, actual } => {
                write!(f, "bad sequence number: expected {expected}, got {actual}")
            }
            ChannelError::Malformed => write!(f, "malformed sealed message"),
        }
    }
}

impl Error for ChannelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ChannelError::Attestation(e) => Some(e),
            ChannelError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnclaveError> for ChannelError {
    fn from(e: EnclaveError) -> Self {
        ChannelError::Attestation(e)
    }
}

impl From<CryptoError> for ChannelError {
    fn from(e: CryptoError) -> Self {
        ChannelError::Crypto(e)
    }
}

/// Which side of the channel an endpoint plays; determines the nonce
/// domain so the two directions never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The application / `DedupRuntime` side.
    Client,
    /// The `ResultStore` side.
    Server,
}

impl Role {
    fn domain_byte(self) -> u8 {
        match self {
            Role::Client => 0x01,
            Role::Server => 0x02,
        }
    }

    fn peer(self) -> Role {
        match self {
            Role::Client => Role::Server,
            Role::Server => Role::Client,
        }
    }
}

/// One endpoint of an established secure channel.
#[derive(Debug)]
pub struct SecureChannel {
    cipher: AesGcm128,
    role: Role,
    send_seq: u64,
    recv_seq: u64,
}

impl SecureChannel {
    fn new(key: Key128, role: Role) -> Self {
        SecureChannel { cipher: AesGcm128::new(&key), role, send_seq: 0, recv_seq: 0 }
    }

    /// Creates a channel endpoint directly from a session key (used by
    /// transports that run the handshake themselves).
    pub fn from_session_key(key: Key128, role: Role) -> Self {
        SecureChannel::new(key, role)
    }

    /// Seals `plaintext` for the peer. The wire format is
    /// `seq (8 bytes LE) || ciphertext+tag`.
    pub fn seal_message(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        let nonce = nonce_for(self.role, seq);
        let mut out = seq.to_le_bytes().to_vec();
        out.extend_from_slice(&self.cipher.seal(&nonce, &seq.to_le_bytes(), plaintext));
        out
    }

    /// Opens a message sealed by the peer.
    ///
    /// # Errors
    ///
    /// - [`ChannelError::Malformed`] if the frame lacks a header.
    /// - [`ChannelError::BadSequence`] on replayed or reordered frames.
    /// - [`ChannelError::Crypto`] if authentication fails (tampering or
    ///   wrong session key).
    pub fn open_message(&mut self, sealed: &[u8]) -> Result<Vec<u8>, ChannelError> {
        if sealed.len() < 8 {
            return Err(ChannelError::Malformed);
        }
        let seq = u64::from_le_bytes(sealed[..8].try_into().expect("sized"));
        if seq != self.recv_seq {
            return Err(ChannelError::BadSequence {
                expected: self.recv_seq,
                actual: seq,
            });
        }
        let nonce = nonce_for(self.role.peer(), seq);
        let plaintext = self.cipher.open(&nonce, &sealed[..8], &sealed[8..])?;
        self.recv_seq += 1;
        Ok(plaintext)
    }

    /// This endpoint's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Number of messages sealed so far.
    pub fn sent(&self) -> u64 {
        self.send_seq
    }

    /// Number of messages opened so far.
    pub fn received(&self) -> u64 {
        self.recv_seq
    }
}

fn nonce_for(sender: Role, seq: u64) -> Nonce {
    let mut bytes = [0u8; 12];
    bytes[0] = sender.domain_byte();
    bytes[4..12].copy_from_slice(&seq.to_le_bytes());
    Nonce::from_bytes(bytes)
}

/// The trusted session-establishment authority.
///
/// Stands in for the attested key exchange of a real deployment: it
/// verifies both endpoints' quotes against an [`AttestationService`] and
/// derives the shared session key that the attested exchange would have
/// produced.
#[derive(Debug)]
pub struct SessionAuthority {
    service: AttestationService,
    session_secret: [u8; 32],
    rng: parking_lot_free_rng::RngCell,
}

// A tiny interior-mutability wrapper so SessionAuthority::establish can take
// &self; kept private to this module.
mod parking_lot_free_rng {
    use speed_crypto::SystemRng;
    use std::sync::Mutex;

    #[derive(Debug)]
    pub struct RngCell(Mutex<SystemRng>);

    impl RngCell {
        pub fn new(rng: SystemRng) -> Self {
            RngCell(Mutex::new(rng))
        }

        pub fn fill(&self, buf: &mut [u8]) {
            self.0.lock().expect("rng lock poisoned").fill(buf);
        }
    }
}

impl SessionAuthority {
    /// Creates an authority around a fresh attestation service.
    pub fn new() -> Self {
        SessionAuthority::from_service(AttestationService::new(), SystemRng::new())
    }

    /// Creates a deterministic authority for tests.
    pub fn with_seed(seed: u64) -> Self {
        SessionAuthority::from_service(
            AttestationService::with_seed(seed),
            SystemRng::seeded(seed.wrapping_add(1)),
        )
    }

    fn from_service(service: AttestationService, mut rng: SystemRng) -> Self {
        let mut session_secret = [0u8; 32];
        rng.fill(&mut session_secret);
        SessionAuthority {
            service,
            session_secret,
            rng: parking_lot_free_rng::RngCell::new(rng),
        }
    }

    /// The underlying attestation service (to verify quotes independently).
    pub fn service(&self) -> &AttestationService {
        &self.service
    }

    /// Runs the full attested establishment between a client enclave and a
    /// server enclave, possibly on different platforms.
    ///
    /// Returns `(client_end, server_end)` sharing a fresh session key.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Attestation`] if either quote fails.
    pub fn establish(
        &self,
        client: (&Platform, &Enclave),
        server: (&Platform, &Enclave),
    ) -> Result<(SecureChannel, SecureChannel), ChannelError> {
        let mut client_data = [0u8; REPORT_DATA_LEN];
        self.rng.fill(&mut client_data[..32]);
        let mut server_data = [0u8; REPORT_DATA_LEN];
        self.rng.fill(&mut server_data[..32]);

        let client_report = create_report(client.0, client.1, &client_data);
        let server_report = create_report(server.0, server.1, &server_data);
        let client_quote = self.service.quote(client.0, &client_report)?;
        let server_quote = self.service.quote(server.0, &server_report)?;

        let key = self.session_key(&client_quote, &server_quote)?;
        Ok((
            SecureChannel::new(key.clone(), Role::Client),
            SecureChannel::new(key, Role::Server),
        ))
    }

    /// Derives the session key for two verified quotes — the primitive used
    /// by stream transports that exchange quotes themselves.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Attestation`] if either quote fails
    /// verification.
    pub fn session_key(
        &self,
        client_quote: &Quote,
        server_quote: &Quote,
    ) -> Result<Key128, ChannelError> {
        self.service.verify_quote(client_quote)?;
        self.service.verify_quote(server_quote)?;
        let mut info = Vec::with_capacity(64 + 2 * REPORT_DATA_LEN);
        info.extend_from_slice(client_quote.measurement.as_bytes());
        info.extend_from_slice(&client_quote.report_data);
        info.extend_from_slice(server_quote.measurement.as_bytes());
        info.extend_from_slice(&server_quote.report_data);
        let okm = hkdf::derive(b"speed-session", &self.session_secret, &info, 16);
        Ok(Key128::from_slice(&okm).expect("hkdf produced 16 bytes"))
    }
}

impl Default for SessionAuthority {
    fn default() -> Self {
        SessionAuthority::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::CostModel;

    fn establish_pair() -> (SecureChannel, SecureChannel) {
        let authority = SessionAuthority::with_seed(9);
        let p1 = Platform::new(CostModel::no_sgx());
        let p2 = Platform::new(CostModel::no_sgx());
        let app = p1.create_enclave(b"app").unwrap();
        let store = p2.create_enclave(b"store").unwrap();
        authority.establish((&p1, &app), (&p2, &store)).unwrap()
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut client, mut server) = establish_pair();
        let to_server = client.seal_message(b"GET tag");
        assert_eq!(server.open_message(&to_server).unwrap(), b"GET tag");
        let to_client = server.seal_message(b"FOUND record");
        assert_eq!(client.open_message(&to_client).unwrap(), b"FOUND record");
    }

    #[test]
    fn replay_is_rejected() {
        let (mut client, mut server) = establish_pair();
        let frame = client.seal_message(b"once");
        assert!(server.open_message(&frame).is_ok());
        assert!(matches!(
            server.open_message(&frame),
            Err(ChannelError::BadSequence { expected: 1, actual: 0 })
        ));
    }

    #[test]
    fn reorder_is_rejected() {
        let (mut client, mut server) = establish_pair();
        let first = client.seal_message(b"1");
        let second = client.seal_message(b"2");
        assert!(matches!(
            server.open_message(&second),
            Err(ChannelError::BadSequence { .. })
        ));
        // The in-order frame still works afterwards.
        assert_eq!(server.open_message(&first).unwrap(), b"1");
    }

    #[test]
    fn tampering_is_rejected() {
        let (mut client, mut server) = establish_pair();
        let mut frame = client.seal_message(b"data");
        let last = frame.len() - 1;
        frame[last] ^= 1;
        assert!(matches!(server.open_message(&frame), Err(ChannelError::Crypto(_))));
    }

    #[test]
    fn cross_session_frames_fail() {
        let (mut c1, _s1) = establish_pair();
        let authority = SessionAuthority::with_seed(1234);
        let p = Platform::new(CostModel::no_sgx());
        let a = p.create_enclave(b"a").unwrap();
        let b = p.create_enclave(b"b").unwrap();
        let (_c2, mut s2) = authority.establish((&p, &a), (&p, &b)).unwrap();
        let frame = c1.seal_message(b"hello");
        assert!(matches!(s2.open_message(&frame), Err(ChannelError::Crypto(_))));
    }

    #[test]
    fn short_frame_is_malformed() {
        let (_c, mut server) = establish_pair();
        assert_eq!(server.open_message(&[1, 2, 3]), Err(ChannelError::Malformed));
    }

    #[test]
    fn same_direction_nonces_never_repeat() {
        let (mut client, mut server) = establish_pair();
        // Same plaintext sealed twice yields different ciphertexts (fresh seq).
        let f1 = client.seal_message(b"x");
        let f2 = client.seal_message(b"x");
        assert_ne!(f1, f2);
        assert_eq!(server.open_message(&f1).unwrap(), b"x");
        assert_eq!(server.open_message(&f2).unwrap(), b"x");
    }

    #[test]
    fn counters_track_traffic() {
        let (mut client, mut server) = establish_pair();
        for i in 0..5 {
            let frame = client.seal_message(format!("msg{i}").as_bytes());
            server.open_message(&frame).unwrap();
        }
        assert_eq!(client.sent(), 5);
        assert_eq!(server.received(), 5);
        assert_eq!(client.role(), Role::Client);
        assert_eq!(server.role(), Role::Server);
    }
}
