//! The attested secure channel between `DedupRuntime` and `ResultStore`.
//!
//! The paper sends tags and records "via a secure channel" (Algorithm 1,
//! line 2) established between mutually attested enclaves. Real SGX
//! deployments run an attested key exchange (e.g. SIGMA over local reports,
//! or attested TLS for remote stores). Without public-key primitives in
//! scope, the simulator models the trusted third party that endorses the
//! exchange, a [`SessionAuthority`]. Every transport runs one handshake:
//! [`SessionAuthority::connect`] on the client and
//! [`SessionAuthority::accept`] on the server, each one ECALL. Each quote
//! binds [`PROTOCOL_VERSION`] and 32 fresh random bytes, and the key hashes
//! both quotes, so every session gets a key of its own. All traffic is then
//! protected with AES-GCM under strictly monotonic sequence-number nonces
//! (anti-replay, anti-reorder).

use std::error::Error;
use std::fmt;

use speed_crypto::{fill_random, hkdf, AesGcm128, CryptoError, Key128, Nonce, SystemRng};
use speed_enclave::attestation::{
    create_report, AttestationService, Quote, REPORT_DATA_LEN,
};
use speed_enclave::{Enclave, EnclaveError, Platform};

/// Version of the wire protocol: the message set and what each body means.
///
/// Each handshake quote attests it, and each side refuses a peer that
/// attests another version before any data-plane frame. Version 1 keys the
/// negative filters by the comp-tag and drops the prefilter-carrying batch
/// items.
pub const PROTOCOL_VERSION: u32 = 1;

/// The report data one side of a handshake attests: [`PROTOCOL_VERSION`],
/// little-endian, in bytes 0–3, then 32 bytes of OS entropy.
fn handshake_report_data() -> [u8; REPORT_DATA_LEN] {
    let mut data = [0u8; REPORT_DATA_LEN];
    data[..4].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    fill_random(&mut data[4..36]);
    data
}

/// The protocol version a quote attests: 0 for a peer that predates the
/// field and attests all-zero report data.
fn attested_version(quote: &Quote) -> u32 {
    let [a, b, c, d, ..] = quote.report_data;
    u32::from_le_bytes([a, b, c, d])
}

/// Refuses a handshake between peers of two protocol versions.
fn same_version(client: u32, server: u32) -> Result<(), ChannelError> {
    if client == server {
        Ok(())
    } else {
        Err(ChannelError::Version { client, server })
    }
}

/// Errors from secure-channel establishment or record protection.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChannelError {
    /// A peer's quote failed verification.
    Attestation(EnclaveError),
    /// The two sides of a handshake speak different [`PROTOCOL_VERSION`]s.
    Version {
        /// The version the client attests.
        client: u32,
        /// The version the server attests.
        server: u32,
    },
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
            ChannelError::Version { client, server } => write!(
                f,
                "protocol version mismatch: client speaks {client}, server speaks {server}"
            ),
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
/// verifies each endpoint's quote against an [`AttestationService`] and
/// derives the shared session key that the attested exchange would have
/// produced.
#[derive(Debug)]
pub struct SessionAuthority {
    service: AttestationService,
    session_secret: [u8; 32],
}

impl SessionAuthority {
    /// Creates an authority around a fresh attestation service.
    pub fn new() -> Self {
        SessionAuthority::from_service(AttestationService::new(), SystemRng::new())
    }

    /// Creates an authority whose attestation service and key-derivation
    /// secret derive from `seed`, so that every process built with the same
    /// seed trusts the others' quotes (`speedctl --secret`). Session keys
    /// are not deterministic: each handshake quote binds random bytes from
    /// OS entropy, never from this seed.
    pub fn with_seed(seed: u64) -> Self {
        SessionAuthority::from_service(
            AttestationService::with_seed(seed),
            SystemRng::seeded(seed.wrapping_add(1)),
        )
    }

    fn from_service(service: AttestationService, mut rng: SystemRng) -> Self {
        let mut session_secret = [0u8; 32];
        rng.fill(&mut session_secret);
        SessionAuthority { service, session_secret }
    }

    /// The underlying attestation service (to verify quotes independently).
    pub fn service(&self) -> &AttestationService {
        &self.service
    }

    /// The client side of the handshake, in one ECALL (`client_handshake`)
    /// on `enclave`: quotes it, hands the quote to `exchange` (which carries
    /// it to the server and returns the server's quote; it stands for the
    /// socket OCALLs the cost model does not charge), verifies that quote
    /// and its version, and derives the client's channel end.
    ///
    /// # Errors
    ///
    /// Whatever `exchange` returns, or [`ChannelError::Attestation`] or
    /// [`ChannelError::Version`] for the server's quote.
    pub fn connect<E: From<ChannelError>>(
        &self,
        platform: &Platform,
        enclave: &Enclave,
        exchange: impl FnOnce(&Quote) -> Result<Quote, E>,
    ) -> Result<SecureChannel, E> {
        enclave.ecall("client_handshake", || {
            let client_quote = self.quote(platform, enclave)?;
            let server_quote = exchange(&client_quote)?;
            self.service.verify_quote(&server_quote).map_err(ChannelError::from)?;
            same_version(PROTOCOL_VERSION, attested_version(&server_quote))?;
            let key = self.session_key(&client_quote, &server_quote);
            Ok(SecureChannel::new(key, Role::Client))
        })
    }

    /// The server side of the handshake, in one ECALL (`store_handshake`)
    /// on `enclave`: verifies the client's quote and its version, quotes the
    /// enclave, and returns the server's channel end and the quote to send
    /// back.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Attestation`] or [`ChannelError::Version`] for the
    /// client's quote.
    pub fn accept(
        &self,
        platform: &Platform,
        enclave: &Enclave,
        client_quote: &Quote,
    ) -> Result<(SecureChannel, Quote), ChannelError> {
        enclave.ecall("store_handshake", || {
            self.service.verify_quote(client_quote)?;
            same_version(attested_version(client_quote), PROTOCOL_VERSION)?;
            let server_quote = self.quote(platform, enclave)?;
            let key = self.session_key(client_quote, &server_quote);
            Ok((SecureChannel::new(key, Role::Server), server_quote))
        })
    }

    /// Quotes `enclave` over fresh [`handshake_report_data`].
    fn quote(
        &self,
        platform: &Platform,
        enclave: &Enclave,
    ) -> Result<Quote, ChannelError> {
        let report = create_report(platform, enclave, &handshake_report_data());
        Ok(self.service.quote(platform, &report)?)
    }

    /// The session key of a verified quote pair: HKDF over both
    /// measurements and both report data under the authority's secret.
    fn session_key(&self, client_quote: &Quote, server_quote: &Quote) -> Key128 {
        let mut info = Vec::with_capacity(64 + 2 * REPORT_DATA_LEN);
        info.extend_from_slice(client_quote.measurement.as_bytes());
        info.extend_from_slice(&client_quote.report_data);
        info.extend_from_slice(server_quote.measurement.as_bytes());
        info.extend_from_slice(&server_quote.report_data);
        let okm = hkdf::derive(b"speed-session", &self.session_secret, &info, 16);
        Key128::from_slice(&okm).expect("hkdf produced 16 bytes")
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

    /// One handshake between `app` and `store` through `connect` and
    /// `accept`, with the quotes each side sent.
    fn handshake(
        authority: &SessionAuthority,
        (p1, app): (&Platform, &Enclave),
        (p2, store): (&Platform, &Enclave),
    ) -> (SecureChannel, SecureChannel, Quote, Quote) {
        let mut server = None;
        let client = authority
            .connect(p1, app, |client_quote| {
                let (end, server_quote) = authority.accept(p2, store, client_quote)?;
                server = Some((end, client_quote.clone(), server_quote.clone()));
                Ok::<_, ChannelError>(server_quote)
            })
            .unwrap();
        let (server, client_quote, server_quote) = server.unwrap();
        (client, server, client_quote, server_quote)
    }

    fn establish_pair() -> (SecureChannel, SecureChannel) {
        let authority = SessionAuthority::with_seed(9);
        let p1 = Platform::new(CostModel::no_sgx());
        let p2 = Platform::new(CostModel::no_sgx());
        let app = p1.create_enclave(b"app").unwrap();
        let store = p2.create_enclave(b"store").unwrap();
        let (client, server, _, _) = handshake(&authority, (&p1, &app), (&p2, &store));
        (client, server)
    }

    /// The client side as a peer built before the nonce would run it: its
    /// quote attests version 1 and 32 zero bytes.
    fn zero_nonce_client(
        authority: &SessionAuthority,
        (p1, app): (&Platform, &Enclave),
        (p2, store): (&Platform, &Enclave),
    ) -> (SecureChannel, SecureChannel) {
        let mut data = [0u8; REPORT_DATA_LEN];
        data[..4].copy_from_slice(&1u32.to_le_bytes());
        let client_quote =
            authority.service.quote(p1, &create_report(p1, app, &data)).unwrap();
        let (server, server_quote) = authority.accept(p2, store, &client_quote).unwrap();
        authority.service.verify_quote(&server_quote).unwrap();
        let key = authority.session_key(&client_quote, &server_quote);
        (SecureChannel::new(key, Role::Client), server)
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
        // Two sessions between the same two enclaves under one authority
        // still get different keys.
        let authority = SessionAuthority::with_seed(1234);
        let p = Platform::new(CostModel::no_sgx());
        let a = p.create_enclave(b"a").unwrap();
        let b = p.create_enclave(b"b").unwrap();
        let (mut c1, _s1, _, _) = handshake(&authority, (&p, &a), (&p, &b));
        let (_c2, mut s2, _, _) = handshake(&authority, (&p, &a), (&p, &b));
        let frame = c1.seal_message(b"hello");
        assert!(matches!(s2.open_message(&frame), Err(ChannelError::Crypto(_))));
    }

    #[test]
    fn each_side_is_one_ecall_and_binds_its_version_and_a_fresh_nonce() {
        let authority = SessionAuthority::with_seed(5);
        let p = Platform::new(CostModel::default_sgx());
        let app = p.create_enclave(b"app").unwrap();
        let store = p.create_enclave(b"store").unwrap();
        let (app_before, store_before) = (app.stats().ecalls, store.stats().ecalls);
        let (_, _, client_quote, server_quote) =
            handshake(&authority, (&p, &app), (&p, &store));
        assert_eq!(app.stats().ecalls, app_before + 1);
        assert_eq!(store.stats().ecalls, store_before + 1);

        let (_, _, again, _) = handshake(&authority, (&p, &app), (&p, &store));
        for quote in [&client_quote, &server_quote, &again] {
            assert_eq!(attested_version(quote), PROTOCOL_VERSION);
            assert_ne!(quote.report_data[4..36], [0u8; 32]);
            assert_eq!(quote.report_data[36..], [0u8; 28]);
        }
        assert_ne!(client_quote.report_data, server_quote.report_data);
        assert_ne!(client_quote.report_data, again.report_data, "a fresh nonce each");
    }

    #[test]
    fn a_zero_nonce_peer_still_connects_with_a_fresh_key_per_session() {
        let authority = SessionAuthority::with_seed(6);
        let p = Platform::new(CostModel::no_sgx());
        let app = p.create_enclave(b"old-app").unwrap();
        let store = p.create_enclave(b"store").unwrap();
        let (mut c1, mut s1) = zero_nonce_client(&authority, (&p, &app), (&p, &store));
        let (mut c2, mut s2) = zero_nonce_client(&authority, (&p, &app), (&p, &store));
        // Each session works both ways...
        for (client, server) in [(&mut c1, &mut s1), (&mut c2, &mut s2)] {
            let frame = client.seal_message(b"GET tag");
            assert_eq!(server.open_message(&frame).unwrap(), b"GET tag");
            let frame = server.seal_message(b"FOUND record");
            assert_eq!(client.open_message(&frame).unwrap(), b"FOUND record");
        }
        // ...under a key of its own: the same plaintext at the same
        // sequence number seals to different bytes, and neither session
        // opens the other's frame.
        let (f1, f2) = (c1.seal_message(b"x"), c2.seal_message(b"x"));
        assert_ne!(f1, f2);
        assert!(matches!(s2.open_message(&f1), Err(ChannelError::Crypto(_))));
        assert!(matches!(s1.open_message(&f2), Err(ChannelError::Crypto(_))));
    }

    #[test]
    fn a_quote_from_another_authority_is_refused() {
        let (authority, rogue) =
            (SessionAuthority::with_seed(8), SessionAuthority::with_seed(80));
        let p = Platform::new(CostModel::no_sgx());
        let app = p.create_enclave(b"app").unwrap();
        let store = p.create_enclave(b"store").unwrap();
        let rogue_quote = rogue.quote(&p, &app).unwrap();
        assert!(matches!(
            authority.accept(&p, &store, &rogue_quote),
            Err(ChannelError::Attestation(_))
        ));
        let rogue_quote = rogue.quote(&p, &store).unwrap();
        assert!(matches!(
            authority.connect(&p, &app, |_| Ok::<_, ChannelError>(rogue_quote)),
            Err(ChannelError::Attestation(_))
        ));
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
