//! The uniform serialization interface and wire protocol of SPEED.
//!
//! The paper requires SPEED to be "designed and implemented in a
//! function-agnostic way with a uniform serialization interface, so as to be
//! compatible with different functions intended for deduplication" (§II-C).
//! This crate provides that interface and the messages exchanged between the
//! `DedupRuntime` and the encrypted `ResultStore`:
//!
//! - [`WireEncode`] / [`WireDecode`] — the uniform serialization traits;
//!   implemented for primitives, byte strings, collections, tuples, and
//!   every protocol type; application developers implement them to make
//!   custom inputs/outputs deduplicable.
//! - [`Message`] — the protocol envelope: `GET_REQUEST`, `GET_RESPONSE`,
//!   `PUT_REQUEST`, `PUT_RESPONSE` (§IV-B), plus batch, stats, metrics,
//!   filter and ring messages.
//! - [`frame`] — length-prefixed framing for stream transports.
//! - [`SecureChannel`] — the attested, AES-GCM-protected channel over which
//!   tags and records travel ("the tag is sent to the encrypted ResultStore
//!   via a secure channel", Algorithm 1 line 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod codec;
pub mod filter;
pub mod frame;
mod messages;

pub use channel::{
    ChannelError, Role, SecureChannel, SessionAuthority, PROTOCOL_VERSION,
};
pub use codec::{Reader, WireDecode, WireEncode, WireError, Writer};
pub use filter::{FilterBody, NegativeFilter};
pub use messages::{
    AppId, BatchItem, BatchItemResult, BatchStatus, CompTag, GetResponseBody, Message,
    MetricsFormat, PutResponseBody, Record, RingBody, RingNodeBody, ShardStatsBody,
    StatsBody, SyncEntry, COMP_TAG_LEN,
};

/// Encodes any [`WireEncode`] value to a fresh byte vector.
///
/// # Example
///
/// ```
/// let bytes = speed_wire::to_bytes(&(42u32, String::from("hi")));
/// let (n, s): (u32, String) = speed_wire::from_bytes(&bytes).unwrap();
/// assert_eq!((n, s.as_str()), (42, "hi"));
/// ```
pub fn to_bytes<T: WireEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut writer = Writer::new();
    value.encode(&mut writer);
    writer.into_bytes()
}

/// Decodes a [`WireDecode`] value from `bytes`, requiring full consumption.
///
/// # Errors
///
/// Returns [`WireError`] if the bytes are malformed or not fully consumed.
pub fn from_bytes<T: WireDecode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}
