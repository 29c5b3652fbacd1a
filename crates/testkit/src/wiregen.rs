//! Domain generators for the dedup wire protocol.
//!
//! Every [`Message`] variant the protocol defines is reachable from
//! [`message`], so a round-trip property over it covers the full codec
//! surface — the place Harnik et al. and the switchless-transition
//! literature agree silent corruption likes to hide.

use speed_wire::{
    AppId, BatchItem, BatchItemResult, CompTag, FilterBody, GetResponseBody, Message,
    MetricsFormat, NegativeFilter, PutResponseBody, Record, RingBody, RingNodeBody,
    ShardStatsBody, StatsBody, COMP_TAG_LEN,
};

use crate::rng::TestRng;

/// A uniformly random computation tag.
pub fn comp_tag(rng: &mut TestRng) -> CompTag {
    let mut bytes = [0u8; COMP_TAG_LEN];
    rng.fill(&mut bytes);
    CompTag::from_bytes(bytes)
}

/// A tag drawn from a small space (`[seed; 32]`), so generated operation
/// sequences actually collide on tags.
pub fn small_tag(rng: &mut TestRng) -> CompTag {
    CompTag::from_bytes([rng.byte(); COMP_TAG_LEN])
}

/// A random application id, biased toward small values.
pub fn app_id(rng: &mut TestRng) -> AppId {
    if rng.chance(0.8) {
        AppId(rng.range_u64(0, 7))
    } else {
        AppId(rng.next_u64())
    }
}

/// A random dedup record with up to `max_len` ciphertext bytes.
pub fn record(rng: &mut TestRng, max_len: usize) -> Record {
    let mut wrapped_key = [0u8; 16];
    rng.fill(&mut wrapped_key);
    let mut nonce = [0u8; 12];
    rng.fill(&mut nonce);
    Record {
        challenge: rng.bytes(48),
        wrapped_key,
        nonce,
        boxed_result: rng.bytes(max_len),
    }
}

/// A random batch item (GET or PUT).
pub fn batch_item(rng: &mut TestRng, max_record_len: usize) -> BatchItem {
    if rng.chance(0.5) {
        BatchItem::Get { tag: comp_tag(rng) }
    } else {
        BatchItem::Put { tag: comp_tag(rng), record: record(rng, max_record_len) }
    }
}

/// A random negative filter: bounded size and random fill.
pub fn negative_filter(rng: &mut TestRng) -> NegativeFilter {
    let mut filter = NegativeFilter::new(rng.range_usize(64, 4096), rng.byte() % 8 + 1);
    for _ in 0..rng.range_usize(0, 32) {
        filter.insert(&comp_tag(rng));
    }
    filter
}

/// A random filter snapshot with up to 8 shard filters.
pub fn filter_body(rng: &mut TestRng) -> FilterBody {
    let shard_count = rng.range_usize(0, 8);
    FilterBody {
        epoch: rng.next_u64(),
        shards: (0..shard_count).map(|_| negative_filter(rng)).collect(),
    }
}

/// A random per-item batch result (all four status codes reachable).
pub fn batch_item_result(rng: &mut TestRng, max_record_len: usize) -> BatchItemResult {
    match rng.range_u64(0, 3) {
        0 => BatchItemResult::found(record(rng, max_record_len)),
        1 => BatchItemResult::not_found(),
        2 => BatchItemResult::accepted(),
        _ => BatchItemResult::rejected(rng.ascii(32)),
    }
}

/// Random per-shard counters.
pub fn shard_stats(rng: &mut TestRng) -> ShardStatsBody {
    ShardStatsBody {
        entries: rng.range_u64(0, 1 << 20),
        stored_bytes: rng.next_u64() >> 16,
        evictions: rng.range_u64(0, 1 << 16),
        lock_contention: rng.range_u64(0, 1 << 16),
        busy_ns: rng.next_u64() >> 8,
    }
}

/// Random aggregate store statistics with up to 8 shard sections.
pub fn stats_body(rng: &mut TestRng) -> StatsBody {
    let shard_count = rng.range_usize(0, 8);
    StatsBody {
        entries: rng.range_u64(0, 1 << 20),
        gets: rng.next_u64() >> 16,
        hits: rng.next_u64() >> 16,
        puts: rng.next_u64() >> 16,
        rejected_puts: rng.range_u64(0, 1 << 16),
        stored_bytes: rng.next_u64() >> 16,
        evictions: rng.range_u64(0, 1 << 16),
        shards: (0..shard_count).map(|_| shard_stats(rng)).collect(),
    }
}

/// One random ring member (empty addresses reachable: in-process nodes).
pub fn ring_node(rng: &mut TestRng) -> RingNodeBody {
    RingNodeBody {
        id: rng.range_u64(0, 15) as u32,
        addr: if rng.chance(0.3) { String::new() } else { rng.ascii(16) },
        weight: rng.range_u64(0, 4) as u32,
    }
}

/// A random versioned ring view with up to 8 member nodes.
pub fn ring_body(rng: &mut TestRng) -> RingBody {
    let node_count = rng.range_usize(0, 8);
    RingBody {
        version: rng.next_u64(),
        nodes: (0..node_count).map(|_| ring_node(rng)).collect(),
    }
}

/// Number of distinct [`Message`] shapes [`message`] can produce (used by
/// coverage assertions).
pub const MESSAGE_SHAPES: u64 = 18;

/// A random protocol message covering every variant, including both
/// found/not-found GET responses and both metrics formats. `max_record_len`
/// bounds ciphertext sizes so property runs stay fast.
pub fn message(rng: &mut TestRng, max_record_len: usize) -> Message {
    match rng.range_u64(0, MESSAGE_SHAPES - 1) {
        0 => Message::GetRequest { app: app_id(rng), tag: comp_tag(rng) },
        1 => Message::GetResponse(GetResponseBody { found: false, record: None }),
        2 => Message::GetResponse(GetResponseBody {
            found: true,
            record: Some(record(rng, max_record_len)),
        }),
        3 => Message::PutRequest {
            app: app_id(rng),
            tag: comp_tag(rng),
            record: record(rng, max_record_len),
        },
        4 => Message::PutResponse(PutResponseBody { accepted: true, reason: None }),
        5 => Message::PutResponse(PutResponseBody {
            accepted: false,
            reason: Some(rng.ascii(48)),
        }),
        6 => Message::StatsRequest,
        7 => Message::StatsResponse(stats_body(rng)),
        8 => Message::Error(rng.ascii(64)),
        9 => {
            let count = rng.range_usize(0, 6);
            Message::BatchRequest {
                app: app_id(rng),
                items: (0..count).map(|_| batch_item(rng, max_record_len)).collect(),
            }
        }
        10 => {
            let count = rng.range_usize(0, 6);
            Message::BatchResponse(
                (0..count).map(|_| batch_item_result(rng, max_record_len)).collect(),
            )
        }
        11 => Message::MetricsRequest {
            format: if rng.chance(0.5) {
                MetricsFormat::Prometheus
            } else {
                MetricsFormat::Jsonl
            },
        },
        12 => Message::MetricsResponse(rng.ascii(128)),
        13 => Message::FilterRequest,
        14 => Message::FilterResponse(filter_body(rng)),
        15 => Message::PutPrefiltered {
            app: app_id(rng),
            tag: comp_tag(rng),
            prefilter: rng.next_u64(),
            record: record(rng, max_record_len),
        },
        16 => Message::RingRequest,
        _ => Message::RingResponse(ring_body(rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_generator_reaches_every_variant() {
        let mut rng = TestRng::new(0xC0FFEE);
        let mut discriminants = std::collections::HashSet::new();
        for _ in 0..2000 {
            let shape = match message(&mut rng, 64) {
                Message::GetRequest { .. } => 0,
                Message::GetResponse(body) if body.found => 1,
                Message::GetResponse(_) => 2,
                Message::PutRequest { .. } => 3,
                Message::PutResponse(body) if body.accepted => 4,
                Message::PutResponse(_) => 5,
                Message::StatsRequest => 6,
                Message::StatsResponse(_) => 7,
                Message::Error(_) => 8,
                Message::BatchRequest { .. } => 9,
                Message::BatchResponse(_) => 10,
                Message::MetricsRequest { .. } => 11,
                Message::MetricsResponse(_) => 12,
                Message::FilterRequest => 13,
                Message::FilterResponse(_) => 14,
                Message::PutPrefiltered { .. } => 15,
                Message::RingRequest => 16,
                Message::RingResponse(_) => 17,
                _ => 18,
            };
            discriminants.insert(shape);
        }
        assert_eq!(discriminants.len() as u64, MESSAGE_SHAPES);
    }

    #[test]
    fn batch_item_generator_reaches_every_variant() {
        let mut rng = TestRng::new(0xBA7C4);
        let mut shapes = std::collections::HashSet::new();
        for _ in 0..200 {
            let shape = match batch_item(&mut rng, 32) {
                BatchItem::Get { .. } => 0,
                BatchItem::Put { .. } => 1,
            };
            shapes.insert(shape);
        }
        assert_eq!(shapes.len(), 2, "batch_item must cover both shapes");
    }

    #[test]
    fn small_tags_collide() {
        let mut rng = TestRng::new(1);
        let tags: std::collections::HashSet<_> =
            (0..600).map(|_| small_tag(&mut rng)).collect();
        // Only 256 possible small tags, so 600 draws must collide heavily.
        assert!(tags.len() <= 256);
    }

    #[test]
    fn records_stay_bounded() {
        let mut rng = TestRng::new(2);
        for _ in 0..100 {
            assert!(record(&mut rng, 32).boxed_result.len() <= 32);
        }
    }
}
