//! Protocol messages between `DedupRuntime` and `ResultStore` (§IV-B).

use crate::codec::{Reader, WireDecode, WireEncode, WireError, Writer};
use crate::filter::FilterBody;

/// Length in bytes of a computation tag (SHA-256 output).
pub const COMP_TAG_LEN: usize = 32;

/// The tag `t ← Hash(func, m)` identifying a computation (Algorithm 1,
/// line 1). Two computations are duplicates iff their tags are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompTag([u8; COMP_TAG_LEN]);

impl CompTag {
    /// Wraps raw tag bytes.
    pub fn from_bytes(bytes: [u8; COMP_TAG_LEN]) -> Self {
        CompTag(bytes)
    }

    /// Returns the raw tag bytes.
    pub fn as_bytes(&self) -> &[u8; COMP_TAG_LEN] {
        &self.0
    }

    /// Hex prefix for logging (first 8 bytes).
    pub fn short_hex(&self) -> String {
        self.0[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl std::fmt::Debug for CompTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompTag({}…)", self.short_hex())
    }
}

impl WireEncode for CompTag {
    fn encode(&self, writer: &mut Writer) {
        self.0.encode(writer);
    }
}

impl WireDecode for CompTag {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CompTag(<[u8; COMP_TAG_LEN]>::decode(reader)?))
    }
}

/// Identity of an application instance, used for quota accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u64);

impl WireEncode for AppId {
    fn encode(&self, writer: &mut Writer) {
        self.0.encode(writer);
    }
}

impl WireDecode for AppId {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AppId(u64::decode(reader)?))
    }
}

/// A stored dedup record: everything a subsequent computation needs to
/// recover the result (Algorithm 2's `(r, [res], [k])`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The RCE challenge message `r` picked by the initial computation.
    pub challenge: Vec<u8>,
    /// The wrapped result-encryption key `[k] = k ⊕ h`.
    pub wrapped_key: [u8; 16],
    /// GCM nonce used for the result ciphertext.
    pub nonce: [u8; 12],
    /// The result ciphertext `[res]` (payload plus appended GCM tag).
    pub boxed_result: Vec<u8>,
}

impl Record {
    /// Approximate wire size in bytes, used for quota accounting and
    /// boundary-copy cost modelling.
    pub fn wire_size(&self) -> usize {
        4 + self.challenge.len() + 16 + 12 + 4 + self.boxed_result.len()
    }
}

impl WireEncode for Record {
    fn encode(&self, writer: &mut Writer) {
        self.challenge.encode(writer);
        self.wrapped_key.encode(writer);
        self.nonce.encode(writer);
        self.boxed_result.encode(writer);
    }
}

impl WireDecode for Record {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Record {
            challenge: Vec::<u8>::decode(reader)?,
            wrapped_key: <[u8; 16]>::decode(reader)?,
            nonce: <[u8; 12]>::decode(reader)?,
            boxed_result: Vec::<u8>::decode(reader)?,
        })
    }
}

/// Body of a `GET_RESPONSE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetResponseBody {
    /// Whether the computation had been stored (`true` in Algorithm 2
    /// line 3, `false` in Algorithm 1 line 3).
    pub found: bool,
    /// The record, present iff `found`.
    pub record: Option<Record>,
}

/// Body of a `PUT_RESPONSE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PutResponseBody {
    /// Whether the store accepted the record.
    pub accepted: bool,
    /// Human-readable reason when rejected (e.g. quota exceeded).
    pub reason: Option<String>,
}

/// Store-side statistics reported to monitoring clients.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsBody {
    /// Number of entries in the metadata dictionary.
    pub entries: u64,
    /// Total GET requests served.
    pub gets: u64,
    /// GETs that found a record.
    pub hits: u64,
    /// Total PUT requests served.
    pub puts: u64,
    /// PUTs rejected (quota, duplicate race, eviction pressure).
    pub rejected_puts: u64,
    /// Bytes of result ciphertext held outside the enclave.
    pub stored_bytes: u64,
    /// LRU evictions across all shards.
    pub evictions: u64,
    /// Per-shard counters, indexed by shard id (empty on old servers).
    pub shards: Vec<ShardStatsBody>,
}

/// Counters for one store shard (lock partition of the metadata dict).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStatsBody {
    /// Entries held by this shard's dictionary.
    pub entries: u64,
    /// Ciphertext bytes referenced by this shard's entries.
    pub stored_bytes: u64,
    /// LRU evictions performed by this shard.
    pub evictions: u64,
    /// Lock acquisitions that found the shard lock already held.
    pub lock_contention: u64,
    /// Nanoseconds spent holding this shard's dictionary lock (the shard's
    /// serial service time; drives the concurrency model of `repro shard`).
    pub busy_ns: u64,
}

impl WireEncode for ShardStatsBody {
    fn encode(&self, writer: &mut Writer) {
        self.entries.encode(writer);
        self.stored_bytes.encode(writer);
        self.evictions.encode(writer);
        self.lock_contention.encode(writer);
        self.busy_ns.encode(writer);
    }
}

impl WireDecode for ShardStatsBody {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardStatsBody {
            entries: u64::decode(reader)?,
            stored_bytes: u64::decode(reader)?,
            evictions: u64::decode(reader)?,
            lock_contention: u64::decode(reader)?,
            busy_ns: u64::decode(reader)?,
        })
    }
}

/// Rendering requested by a [`Message::MetricsRequest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format (version 0.0.4).
    Prometheus,
    /// One JSON object per metric, one per line.
    Jsonl,
}

impl WireEncode for MetricsFormat {
    fn encode(&self, writer: &mut Writer) {
        let code: u8 = match self {
            MetricsFormat::Prometheus => 0,
            MetricsFormat::Jsonl => 1,
        };
        code.encode(writer);
    }
}

impl WireDecode for MetricsFormat {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(reader)? {
            0 => Ok(MetricsFormat::Prometheus),
            1 => Ok(MetricsFormat::Jsonl),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

/// One exported store entry: the unit of a checkpoint and of a WAL PUT
/// record.
///
/// The encoding ends with a `u64` slot that once held the entry's hit
/// count. It is written as 0 and skipped on decode, so records and
/// checkpoints keep their byte layout in both directions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncEntry {
    /// The computation tag.
    pub tag: CompTag,
    /// The stored record.
    pub record: Record,
}

impl WireEncode for SyncEntry {
    fn encode(&self, writer: &mut Writer) {
        self.tag.encode(writer);
        self.record.encode(writer);
        0u64.encode(writer);
    }
}

impl WireDecode for SyncEntry {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let entry =
            SyncEntry { tag: CompTag::decode(reader)?, record: Record::decode(reader)? };
        u64::decode(reader)?;
        Ok(entry)
    }
}

/// One member of a cluster ring announced in a [`Message::RingResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingNodeBody {
    /// Stable numeric node identity (survives address changes).
    pub id: u32,
    /// Dial address of the node's store server (`host:port`), empty for
    /// in-process nodes.
    pub addr: String,
    /// Relative ring weight; a node with weight 2 owns roughly twice the
    /// keyspace of a weight-1 node. Zero-weight nodes are ignored.
    pub weight: u32,
}

impl WireEncode for RingNodeBody {
    fn encode(&self, writer: &mut Writer) {
        self.id.encode(writer);
        self.addr.encode(writer);
        self.weight.encode(writer);
    }
}

impl WireDecode for RingNodeBody {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RingNodeBody {
            id: u32::decode(reader)?,
            addr: String::decode(reader)?,
            weight: u32::decode(reader)?,
        })
    }
}

/// Body of a [`Message::RingResponse`]: one versioned view of the cluster
/// membership. Clients rebuild their consistent-hash ring from this; a
/// higher `version` always supersedes a lower one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RingBody {
    /// Monotonic topology version; bumped on every membership change.
    pub version: u64,
    /// The member nodes, in no particular order.
    pub nodes: Vec<RingNodeBody>,
}

impl WireEncode for RingBody {
    fn encode(&self, writer: &mut Writer) {
        self.version.encode(writer);
        encode_seq(&self.nodes, writer);
    }
}

impl WireDecode for RingBody {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RingBody { version: u64::decode(reader)?, nodes: decode_seq(reader)? })
    }
}

/// One operation inside a [`Message::BatchRequest`].
///
/// A batch carries N independent GET/PUT operations in one envelope so the
/// store can serve them with a single enclave entry and the client pays a
/// single network roundtrip — the switchless-IO observation applied to the
/// dedup data path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchItem {
    /// Duplicate check for one tag.
    Get {
        /// The computation tag.
        tag: CompTag,
    },
    /// Publish one freshly computed record.
    Put {
        /// The computation tag.
        tag: CompTag,
        /// The encrypted record.
        record: Record,
    },
}

impl BatchItem {
    /// Approximate wire size in bytes, used for boundary-copy accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            BatchItem::Get { .. } => 1 + COMP_TAG_LEN,
            BatchItem::Put { record, .. } => 1 + COMP_TAG_LEN + record.wire_size(),
        }
    }
}

const BATCH_ITEM_GET: u8 = 0;
const BATCH_ITEM_PUT: u8 = 1;
// Codes 2 and 3 carried the retired prefilter-carrying PUT and GET items;
// they decode as `InvalidTag` and must not be reused.

impl WireEncode for BatchItem {
    fn encode(&self, writer: &mut Writer) {
        match self {
            BatchItem::Get { tag } => {
                BATCH_ITEM_GET.encode(writer);
                tag.encode(writer);
            }
            BatchItem::Put { tag, record } => {
                BATCH_ITEM_PUT.encode(writer);
                tag.encode(writer);
                record.encode(writer);
            }
        }
    }
}

impl WireDecode for BatchItem {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(reader)? {
            BATCH_ITEM_GET => Ok(BatchItem::Get { tag: CompTag::decode(reader)? }),
            BATCH_ITEM_PUT => Ok(BatchItem::Put {
                tag: CompTag::decode(reader)?,
                record: Record::decode(reader)?,
            }),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

/// Per-item status code in a [`Message::BatchResponse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchStatus {
    /// GET: the record was found and is attached.
    Found,
    /// GET: no record under this tag.
    NotFound,
    /// PUT: the record was accepted (or an identical entry already existed).
    Accepted,
    /// PUT: the record was rejected (quota, enclave memory, …); see
    /// [`BatchItemResult::reason`].
    Rejected,
}

impl WireEncode for BatchStatus {
    fn encode(&self, writer: &mut Writer) {
        let code: u8 = match self {
            BatchStatus::Found => 0,
            BatchStatus::NotFound => 1,
            BatchStatus::Accepted => 2,
            BatchStatus::Rejected => 3,
        };
        code.encode(writer);
    }
}

impl WireDecode for BatchStatus {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(reader)? {
            0 => Ok(BatchStatus::Found),
            1 => Ok(BatchStatus::NotFound),
            2 => Ok(BatchStatus::Accepted),
            3 => Ok(BatchStatus::Rejected),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

/// The outcome of one [`BatchItem`], in request order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchItemResult {
    /// Per-item status code.
    pub status: BatchStatus,
    /// The record, present iff `status` is [`BatchStatus::Found`].
    pub record: Option<Record>,
    /// Human-readable reason, present when `status` is
    /// [`BatchStatus::Rejected`].
    pub reason: Option<String>,
}

impl BatchItemResult {
    /// A GET hit carrying its record.
    pub fn found(record: Record) -> Self {
        BatchItemResult { status: BatchStatus::Found, record: Some(record), reason: None }
    }

    /// A GET miss.
    pub fn not_found() -> Self {
        BatchItemResult { status: BatchStatus::NotFound, record: None, reason: None }
    }

    /// An accepted PUT.
    pub fn accepted() -> Self {
        BatchItemResult { status: BatchStatus::Accepted, record: None, reason: None }
    }

    /// A rejected PUT with its reason.
    pub fn rejected(reason: impl Into<String>) -> Self {
        BatchItemResult {
            status: BatchStatus::Rejected,
            record: None,
            reason: Some(reason.into()),
        }
    }
}

impl WireEncode for BatchItemResult {
    fn encode(&self, writer: &mut Writer) {
        self.status.encode(writer);
        self.record.encode(writer);
        self.reason.encode(writer);
    }
}

impl WireDecode for BatchItemResult {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BatchItemResult {
            status: BatchStatus::decode(reader)?,
            record: Option::<Record>::decode(reader)?,
            reason: Option::<String>::decode(reader)?,
        })
    }
}

/// The protocol envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Message {
    /// Duplicate check: "has this computation been done before?"
    GetRequest {
        /// Requesting application.
        app: AppId,
        /// The computation tag.
        tag: CompTag,
    },
    /// Response to [`Message::GetRequest`].
    GetResponse(GetResponseBody),
    /// Publish a freshly computed, encrypted result.
    PutRequest {
        /// Publishing application.
        app: AppId,
        /// The computation tag.
        tag: CompTag,
        /// The encrypted record.
        record: Record,
    },
    /// Response to [`Message::PutRequest`].
    PutResponse(PutResponseBody),
    /// Request store statistics.
    StatsRequest,
    /// Response to [`Message::StatsRequest`].
    StatsResponse(StatsBody),
    /// Protocol-level error (unknown message, malformed body).
    Error(String),
    /// N GET/PUT operations served in one roundtrip and one enclave entry.
    BatchRequest {
        /// Requesting application.
        app: AppId,
        /// The operations, answered in order.
        items: Vec<BatchItem>,
    },
    /// Response to [`Message::BatchRequest`]: one result per item, in
    /// request order.
    BatchResponse(Vec<BatchItemResult>),
    /// Request the server's telemetry registry rendered in `format`.
    MetricsRequest {
        /// Which textual rendering to return.
        format: MetricsFormat,
    },
    /// Response to [`Message::MetricsRequest`]: the rendered registry.
    MetricsResponse(String),
    /// Request a snapshot of the store's per-shard negative-lookup filters.
    FilterRequest,
    /// Response to [`Message::FilterRequest`].
    FilterResponse(FilterBody),
    /// A [`Message::PutRequest`] with a retired 64-bit prefilter field. No
    /// client sends it any more; the store serves it exactly as a
    /// `PutRequest` and ignores the prefilter.
    PutPrefiltered {
        /// Publishing application.
        app: AppId,
        /// The computation tag.
        tag: CompTag,
        /// Ignored by the store.
        prefilter: u64,
        /// The encrypted record.
        record: Record,
    },
    /// Request the server's current view of the cluster membership ring.
    RingRequest,
    /// Response to [`Message::RingRequest`] (also pushed by operators via
    /// `speedctl` when reconfiguring a cluster).
    RingResponse(RingBody),
}

const TAG_GET_REQUEST: u8 = 1;
const TAG_GET_RESPONSE: u8 = 2;
const TAG_PUT_REQUEST: u8 = 3;
const TAG_PUT_RESPONSE: u8 = 4;
const TAG_STATS_REQUEST: u8 = 5;
const TAG_STATS_RESPONSE: u8 = 6;
// Tags 7 and 8 carried the retired master-sync messages; they decode as
// `InvalidTag` and must not be reused.
const TAG_ERROR: u8 = 9;
const TAG_BATCH_REQUEST: u8 = 10;
const TAG_BATCH_RESPONSE: u8 = 11;
const TAG_METRICS_REQUEST: u8 = 12;
const TAG_METRICS_RESPONSE: u8 = 13;
const TAG_FILTER_REQUEST: u8 = 14;
const TAG_FILTER_RESPONSE: u8 = 15;
const TAG_PUT_PREFILTERED: u8 = 16;
const TAG_RING_REQUEST: u8 = 17;
const TAG_RING_RESPONSE: u8 = 18;

/// Encodes a `u32` length prefix followed by each element.
fn encode_seq<T: WireEncode>(items: &[T], writer: &mut Writer) {
    let len = u32::try_from(items.len()).expect("batch too large");
    len.encode(writer);
    for item in items {
        item.encode(writer);
    }
}

/// Decodes a `u32`-prefixed sequence with a defensive preallocation bound.
fn decode_seq<T: WireDecode>(reader: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
    let len = u32::decode(reader)? as usize;
    let mut items = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        items.push(T::decode(reader)?);
    }
    Ok(items)
}

impl WireEncode for Message {
    fn encode(&self, writer: &mut Writer) {
        match self {
            Message::GetRequest { app, tag } => {
                TAG_GET_REQUEST.encode(writer);
                app.encode(writer);
                tag.encode(writer);
            }
            Message::GetResponse(body) => {
                TAG_GET_RESPONSE.encode(writer);
                body.found.encode(writer);
                body.record.encode(writer);
            }
            Message::PutRequest { app, tag, record } => {
                TAG_PUT_REQUEST.encode(writer);
                app.encode(writer);
                tag.encode(writer);
                record.encode(writer);
            }
            Message::PutResponse(body) => {
                TAG_PUT_RESPONSE.encode(writer);
                body.accepted.encode(writer);
                body.reason.encode(writer);
            }
            Message::StatsRequest => TAG_STATS_REQUEST.encode(writer),
            Message::StatsResponse(body) => {
                TAG_STATS_RESPONSE.encode(writer);
                body.entries.encode(writer);
                body.gets.encode(writer);
                body.hits.encode(writer);
                body.puts.encode(writer);
                body.rejected_puts.encode(writer);
                body.stored_bytes.encode(writer);
                body.evictions.encode(writer);
                encode_seq(&body.shards, writer);
            }
            Message::Error(msg) => {
                TAG_ERROR.encode(writer);
                msg.encode(writer);
            }
            Message::BatchRequest { app, items } => {
                TAG_BATCH_REQUEST.encode(writer);
                app.encode(writer);
                encode_seq(items, writer);
            }
            Message::BatchResponse(results) => {
                TAG_BATCH_RESPONSE.encode(writer);
                encode_seq(results, writer);
            }
            Message::MetricsRequest { format } => {
                TAG_METRICS_REQUEST.encode(writer);
                format.encode(writer);
            }
            Message::MetricsResponse(rendered) => {
                TAG_METRICS_RESPONSE.encode(writer);
                rendered.encode(writer);
            }
            Message::FilterRequest => TAG_FILTER_REQUEST.encode(writer),
            Message::FilterResponse(body) => {
                TAG_FILTER_RESPONSE.encode(writer);
                body.encode(writer);
            }
            Message::PutPrefiltered { app, tag, prefilter, record } => {
                TAG_PUT_PREFILTERED.encode(writer);
                app.encode(writer);
                tag.encode(writer);
                prefilter.encode(writer);
                record.encode(writer);
            }
            Message::RingRequest => TAG_RING_REQUEST.encode(writer),
            Message::RingResponse(body) => {
                TAG_RING_RESPONSE.encode(writer);
                body.encode(writer);
            }
        }
    }
}

impl WireDecode for Message {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let discriminant = u8::decode(reader)?;
        match discriminant {
            TAG_GET_REQUEST => Ok(Message::GetRequest {
                app: AppId::decode(reader)?,
                tag: CompTag::decode(reader)?,
            }),
            TAG_GET_RESPONSE => Ok(Message::GetResponse(GetResponseBody {
                found: bool::decode(reader)?,
                record: Option::<Record>::decode(reader)?,
            })),
            TAG_PUT_REQUEST => Ok(Message::PutRequest {
                app: AppId::decode(reader)?,
                tag: CompTag::decode(reader)?,
                record: Record::decode(reader)?,
            }),
            TAG_PUT_RESPONSE => Ok(Message::PutResponse(PutResponseBody {
                accepted: bool::decode(reader)?,
                reason: Option::<String>::decode(reader)?,
            })),
            TAG_STATS_REQUEST => Ok(Message::StatsRequest),
            TAG_STATS_RESPONSE => Ok(Message::StatsResponse(StatsBody {
                entries: u64::decode(reader)?,
                gets: u64::decode(reader)?,
                hits: u64::decode(reader)?,
                puts: u64::decode(reader)?,
                rejected_puts: u64::decode(reader)?,
                stored_bytes: u64::decode(reader)?,
                evictions: u64::decode(reader)?,
                shards: decode_seq(reader)?,
            })),
            TAG_ERROR => Ok(Message::Error(String::decode(reader)?)),
            TAG_BATCH_REQUEST => Ok(Message::BatchRequest {
                app: AppId::decode(reader)?,
                items: decode_seq(reader)?,
            }),
            TAG_BATCH_RESPONSE => Ok(Message::BatchResponse(decode_seq(reader)?)),
            TAG_METRICS_REQUEST => {
                Ok(Message::MetricsRequest { format: MetricsFormat::decode(reader)? })
            }
            TAG_METRICS_RESPONSE => Ok(Message::MetricsResponse(String::decode(reader)?)),
            TAG_FILTER_REQUEST => Ok(Message::FilterRequest),
            TAG_FILTER_RESPONSE => {
                Ok(Message::FilterResponse(FilterBody::decode(reader)?))
            }
            TAG_PUT_PREFILTERED => Ok(Message::PutPrefiltered {
                app: AppId::decode(reader)?,
                tag: CompTag::decode(reader)?,
                prefilter: u64::decode(reader)?,
                record: Record::decode(reader)?,
            }),
            TAG_RING_REQUEST => Ok(Message::RingRequest),
            TAG_RING_RESPONSE => Ok(Message::RingResponse(RingBody::decode(reader)?)),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    fn sample_record() -> Record {
        Record {
            challenge: vec![1u8; 32],
            wrapped_key: [2u8; 16],
            nonce: [3u8; 12],
            boxed_result: vec![4u8; 50],
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let messages = vec![
            Message::GetRequest { app: AppId(7), tag: CompTag::from_bytes([1; 32]) },
            Message::GetResponse(GetResponseBody { found: false, record: None }),
            Message::GetResponse(GetResponseBody {
                found: true,
                record: Some(sample_record()),
            }),
            Message::PutRequest {
                app: AppId(9),
                tag: CompTag::from_bytes([2; 32]),
                record: sample_record(),
            },
            Message::PutResponse(PutResponseBody { accepted: true, reason: None }),
            Message::PutResponse(PutResponseBody {
                accepted: false,
                reason: Some("quota exceeded".into()),
            }),
            Message::StatsRequest,
            Message::StatsResponse(StatsBody {
                entries: 1,
                gets: 2,
                hits: 3,
                puts: 4,
                rejected_puts: 5,
                stored_bytes: 6,
                evictions: 7,
                shards: vec![
                    ShardStatsBody {
                        entries: 1,
                        stored_bytes: 6,
                        evictions: 7,
                        lock_contention: 8,
                        busy_ns: 9,
                    },
                    ShardStatsBody::default(),
                ],
            }),
            Message::Error("boom".into()),
            Message::BatchRequest {
                app: AppId(3),
                items: vec![
                    BatchItem::Get { tag: CompTag::from_bytes([6; 32]) },
                    BatchItem::Put {
                        tag: CompTag::from_bytes([7; 32]),
                        record: sample_record(),
                    },
                ],
            },
            Message::BatchRequest { app: AppId(4), items: vec![] },
            Message::BatchResponse(vec![
                BatchItemResult::found(sample_record()),
                BatchItemResult::not_found(),
                BatchItemResult::accepted(),
                BatchItemResult::rejected("quota exceeded"),
            ]),
            Message::MetricsRequest { format: MetricsFormat::Prometheus },
            Message::MetricsRequest { format: MetricsFormat::Jsonl },
            Message::MetricsResponse("# TYPE dedup_hits_total counter\n".into()),
            Message::FilterRequest,
            Message::FilterResponse(FilterBody {
                epoch: 42,
                shards: vec![crate::NegativeFilter::new(1 << 12, 4)],
            }),
            Message::PutPrefiltered {
                app: AppId(11),
                tag: CompTag::from_bytes([8; 32]),
                prefilter: 0xFEED_FACE_CAFE_BEEF,
                record: sample_record(),
            },
            Message::RingRequest,
            Message::RingResponse(RingBody::default()),
            Message::RingResponse(RingBody {
                version: 3,
                nodes: vec![
                    RingNodeBody { id: 0, addr: "10.0.0.1:7000".into(), weight: 1 },
                    RingNodeBody { id: 1, addr: String::new(), weight: 2 },
                ],
            }),
        ];
        for msg in messages {
            let decoded: Message = from_bytes(&to_bytes(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn unknown_discriminant_fails() {
        // 7 and 8 are the retired master-sync tags.
        for tag in [7, 8, 200] {
            assert_eq!(from_bytes::<Message>(&[tag]), Err(WireError::InvalidTag(tag)));
        }
    }

    #[test]
    fn sync_entry_bytes_keep_their_layout() {
        // The bytes an entry had when its last field was a hit count: tag,
        // length-prefixed challenge, wrapped key, nonce, length-prefixed
        // ciphertext, then the count as a little-endian u64.
        let layout = |hits: u64| {
            let mut bytes = vec![5u8; 32];
            bytes.extend_from_slice(&32u32.to_le_bytes());
            bytes.extend_from_slice(&[1; 32]);
            bytes.extend_from_slice(&[2; 16]);
            bytes.extend_from_slice(&[3; 12]);
            bytes.extend_from_slice(&50u32.to_le_bytes());
            bytes.extend_from_slice(&[4; 50]);
            bytes.extend_from_slice(&hits.to_le_bytes());
            bytes
        };
        let entry =
            SyncEntry { tag: CompTag::from_bytes([5; 32]), record: sample_record() };
        assert_eq!(from_bytes::<SyncEntry>(&layout(7)), Ok(entry.clone()));
        assert_eq!(to_bytes(&entry), layout(0));
    }

    #[test]
    fn record_wire_size_matches_encoding() {
        let record = sample_record();
        assert_eq!(record.wire_size(), to_bytes(&record).len());
    }

    #[test]
    fn comp_tag_debug_is_short() {
        let tag = CompTag::from_bytes([0xAB; 32]);
        let dbg = format!("{tag:?}");
        assert!(dbg.len() < 32, "{dbg}");
        assert!(dbg.contains("abab"));
    }

    #[test]
    fn batch_item_wire_size_matches_encoding() {
        let get = BatchItem::Get { tag: CompTag::from_bytes([1; 32]) };
        assert_eq!(get.wire_size(), to_bytes(&get).len());
        let put =
            BatchItem::Put { tag: CompTag::from_bytes([2; 32]), record: sample_record() };
        assert_eq!(put.wire_size(), to_bytes(&put).len());
    }

    #[test]
    fn batch_status_rejects_junk_codes() {
        assert_eq!(from_bytes::<BatchStatus>(&[9]), Err(WireError::InvalidTag(9)));
        // 2 and 3 are the retired prefilter-carrying items.
        for code in [2, 3, 7] {
            assert_eq!(
                from_bytes::<BatchItem>(&[code]),
                Err(WireError::InvalidTag(code))
            );
        }
    }

    #[test]
    fn truncated_batch_fails_not_panics() {
        let bytes = to_bytes(&Message::BatchRequest {
            app: AppId(1),
            items: vec![
                BatchItem::Get { tag: CompTag::from_bytes([0; 32]) },
                BatchItem::Put {
                    tag: CompTag::from_bytes([1; 32]),
                    record: sample_record(),
                },
            ],
        });
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Message>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn truncated_ring_response_fails_not_panics() {
        let bytes = to_bytes(&Message::RingResponse(RingBody {
            version: 9,
            nodes: vec![RingNodeBody { id: 2, addr: "a:1".into(), weight: 1 }],
        }));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Message>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn truncated_message_fails_not_panics() {
        let bytes = to_bytes(&Message::PutRequest {
            app: AppId(1),
            tag: CompTag::from_bytes([0; 32]),
            record: sample_record(),
        });
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Message>(&bytes[..cut]).is_err());
        }
    }
}
