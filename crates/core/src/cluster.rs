//! Multi-node store mode: consistent-hash routing, R-way replication, and
//! failover re-attestation (ROADMAP item 3, specified in `docs/CLUSTER.md`).
//!
//! One store process is the scalability and availability ceiling of the
//! single-node deployment. [`ClusterClient`] removes it client-side, with
//! no coordinator in the data path:
//!
//! - **Routing** — computation tags are placed on a versioned
//!   [`HashRing`] of virtual nodes (generalizing the store's tag-lead-byte
//!   shard routing from one process to a node set). A tag's replica set is
//!   the first R distinct nodes clockwise from its ring point.
//! - **Replication** — PUTs go to all R replicas with write-quorum 1: the
//!   first `PUT_RESPONSE` acknowledges the call, and a replica that cannot
//!   be reached becomes a *hint* instead of an error.
//! - **Reads** — GETs read-from-any: replicas are tried in ring order and
//!   the first `found` record wins, so one lost node (or an undrained
//!   hint) never hides an acknowledged PUT.
//! - **Hinted handoff** — hints are owned by the cluster, not by a node:
//!   when any down node answers again the queue drains, and every hinted
//!   PUT is **re-routed through the current ring** at drain time, so a
//!   queued PUT cannot land on a node that has since left the ring.
//! - **Re-attestation** — each node gets its own
//!   [`ResilientClient`] (connector + circuit
//!   breaker), so members fail independently and every per-node reconnect
//!   runs the full attestation handshake again.
//!
//! The client implements [`StoreClient`], so a
//! [`DedupRuntime`](crate::DedupRuntime) adopts a cluster with one builder
//! call (`cluster_store`) and keeps its own resilience/replay layer as an
//! outer line of defence for whole-cluster outages.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use speed_telemetry::{names, Counter, Gauge};
use speed_wire::{
    AppId, BatchItem, BatchItemResult, BatchStatus, CompTag, FilterBody, GetResponseBody,
    Message, PutResponseBody, RingBody, RingNodeBody, StatsBody,
};

use crate::client::StoreClient;
use crate::error::CoreError;
use crate::resilience::{
    Connector, ReplayQueue, ResilienceConfig, ResilienceStats, ResilientClient,
    RetryPolicy,
};

/// Stable identity of one store node on the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer for ring
/// point placement (no external hash crate needed; tags are already
/// SHA-256 output, vnode points need the mixing).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A versioned consistent-hash ring of virtual nodes.
///
/// Each member contributes `vnodes × weight` points placed by mixing
/// `(node id, vnode index)`; a tag is owned by the first point clockwise
/// from its own ring position. Adding or removing one of N equally
/// weighted nodes therefore moves only ~K/N of K keys — the invariant
/// `tests/cluster.rs` checks as a property.
#[derive(Clone, Debug)]
pub struct HashRing {
    version: u64,
    points: Vec<(u64, NodeId)>,
    nodes: Vec<NodeId>,
}

impl HashRing {
    /// Builds a ring from `(node, weight)` members with `vnodes` virtual
    /// points per unit of weight. Zero-weight members own no keyspace.
    pub fn build(version: u64, members: &[(NodeId, u32)], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::new();
        let mut nodes = Vec::new();
        for &(node, weight) in members {
            if weight == 0 {
                continue;
            }
            nodes.push(node);
            for vnode in 0..vnodes.saturating_mul(weight as usize) {
                let point = mix64((u64::from(node.0) << 32) | vnode as u64);
                points.push((point, node));
            }
        }
        points.sort_unstable();
        nodes.sort_unstable();
        nodes.dedup();
        HashRing { version, points, nodes }
    }

    /// Builds a ring from a wire-level topology announcement.
    pub fn from_body(body: &RingBody, vnodes: usize) -> Self {
        let members: Vec<(NodeId, u32)> =
            body.nodes.iter().map(|n| (NodeId(n.id), n.weight)).collect();
        HashRing::build(body.version, &members, vnodes)
    }

    /// The topology version this ring was built from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Member nodes, sorted by id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The ring position of a computation tag.
    pub fn point_of(tag: &CompTag) -> u64 {
        let mut first = [0u8; 8];
        first.copy_from_slice(&tag.as_bytes()[..8]);
        mix64(u64::from_le_bytes(first))
    }

    /// The node owning `tag` (the first replica), if the ring is non-empty.
    pub fn primary(&self, tag: &CompTag) -> Option<NodeId> {
        self.replicas(tag, 1).into_iter().next()
    }

    /// The first `r` distinct nodes clockwise from `tag`'s ring position.
    /// Returns fewer than `r` nodes only when the ring has fewer members.
    pub fn replicas(&self, tag: &CompTag, r: usize) -> Vec<NodeId> {
        if self.points.is_empty() || r == 0 {
            return Vec::new();
        }
        let want = r.min(self.nodes.len());
        let point = Self::point_of(tag);
        let start = self.points.partition_point(|&(p, _)| p < point);
        let mut picked = Vec::with_capacity(want);
        for step in 0..self.points.len() {
            let (_, node) = self.points[(start + step) % self.points.len()];
            if !picked.contains(&node) {
                picked.push(node);
                if picked.len() == want {
                    break;
                }
            }
        }
        picked
    }
}

/// Everything a [`ClusterClient`] needs to know.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Replica count R per tag (clamped to the member count). Default 2.
    pub replication: usize,
    /// Virtual ring points per unit of node weight. Default 64.
    pub vnodes: usize,
    /// Maximum hinted PUTs parked for down replicas; the oldest hint is
    /// evicted (and counted) when full. Default 1024.
    pub hint_capacity: usize,
    /// Per-node retry/breaker policy. The default fails over to the next
    /// replica instead of retrying the same node (`RetryPolicy::none()`),
    /// because with R ≥ 2 a sibling replica beats a backoff sleep.
    pub node_resilience: ResilienceConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replication: 2,
            vnodes: 64,
            hint_capacity: 1024,
            node_resilience: ResilienceConfig {
                retry: RetryPolicy::none(),
                ..ResilienceConfig::default()
            },
        }
    }
}

/// Monotonic counters describing a cluster client's activity. The hint
/// fields read this client's cells of the `cluster_hint*` series; `routed`
/// and `failovers` sum over members, which the per-node series split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterCounts {
    /// Requests routed to any node (one per node round-trip).
    pub routed: u64,
    /// Node round-trips that failed and moved on to the next replica
    /// (or were converted into a hint).
    pub failovers: u64,
    /// Acknowledged PUTs parked as hints because a replica was down.
    pub hinted_puts: u64,
    /// Hinted PUTs delivered after re-routing through the current ring.
    pub hints_replayed: u64,
    /// Hinted PUTs evicted because the bounded hint queue overflowed.
    pub hints_dropped: u64,
}

#[derive(Debug, Default)]
struct ClusterStats {
    routed: AtomicU64,
    failovers: AtomicU64,
}

/// One member's failure domain: its own resilient (reconnect-and-re-attest)
/// client, breaker, counters, and `{node=N}` telemetry series.
struct NodeHandle {
    id: NodeId,
    client: Mutex<ResilientClient>,
    stats: Arc<ResilienceStats>,
    was_down: AtomicBool,
    routed_tm: Counter,
    failovers_tm: Counter,
    up_tm: Gauge,
    reattests_tm: Gauge,
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle").field("id", &self.id).finish_non_exhaustive()
    }
}

impl NodeHandle {
    fn new(id: NodeId, connector: Connector, config: &ClusterConfig) -> Arc<Self> {
        let reg = speed_telemetry::global();
        let label = id.to_string();
        let labels: [(&str, &str); 1] = [("node", label.as_str())];
        let mut node_config = config.node_resilience.clone();
        // De-correlate per-node jitter while keeping seeded runs seeded.
        node_config.jitter_seed =
            node_config.jitter_seed.map(|seed| seed ^ u64::from(id.0));
        let stats = Arc::new(ResilienceStats::default());
        Arc::new(NodeHandle {
            id,
            // Hints are cluster-owned, so a member's client parks nothing.
            client: Mutex::new(ResilientClient::new(
                connector,
                node_config,
                Arc::clone(&stats),
                None,
            )),
            stats,
            was_down: AtomicBool::new(false),
            routed_tm: reg.counter_with(
                names::CLUSTER_ROUTED_REQUESTS_TOTAL,
                "Requests the cluster client routed to one node",
                &labels,
            ),
            failovers_tm: reg.counter_with(
                names::CLUSTER_FAILOVERS_TOTAL,
                "Requests that failed over past one unreachable replica",
                &labels,
            ),
            up_tm: reg.gauge_with(
                names::CLUSTER_NODE_UP,
                "1 while the node answered its last round-trip, 0 after a failure",
                &labels,
            ),
            reattests_tm: reg.gauge_with(
                names::CLUSTER_NODE_REATTESTATIONS,
                "Re-attested reconnects performed against one node",
                &labels,
            ),
        })
    }

    /// One routed round-trip. The second return value is `true` when this
    /// call observed the node *recovering* (first success after a failure)
    /// — the signal that hinted handoff should drain.
    fn send(&self, request: &Message) -> (Result<Message, CoreError>, bool) {
        self.routed_tm.inc();
        let result = lock_recover(&self.client).roundtrip(request);
        let recovered = match &result {
            Ok(_) => {
                self.up_tm.set(1);
                self.was_down.swap(false, Ordering::Relaxed)
            }
            Err(_) => {
                self.up_tm.set(0);
                self.was_down.store(true, Ordering::Relaxed);
                false
            }
        };
        self.reattests_tm.set(self.stats.reconnects.get());
        (result, recovered)
    }

    fn note_failover(&self) {
        self.failovers_tm.inc();
    }
}

struct Topology {
    body: RingBody,
    ring: Arc<HashRing>,
    handles: BTreeMap<u32, Arc<NodeHandle>>,
}

struct ClusterShared {
    config: ClusterConfig,
    topology: RwLock<Topology>,
    /// PUTs owed to unreachable replicas. Unlike a runtime's replay queue,
    /// a hint is bound to no endpoint: the drain re-routes it through the
    /// ring current at drain time, so a hint queued while node A owned the
    /// tag is delivered to whichever nodes own it now.
    hints: ReplayQueue,
    hinted: Counter,
    hints_replayed: Counter,
    stats: ClusterStats,
    ring_version_tm: Gauge,
    ring_nodes_tm: Gauge,
}

fn lock_recover<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn unavailable(why: &str) -> CoreError {
    CoreError::StoreUnavailable(why.into())
}

fn item_tag(item: &BatchItem) -> &CompTag {
    match item {
        BatchItem::Get { tag } | BatchItem::Put { tag, .. } => tag,
    }
}

/// The `PUT_RESPONSE` equivalent to a routed PUT item's result.
fn put_response(result: BatchItemResult) -> Message {
    Message::PutResponse(PutResponseBody {
        accepted: result.status == BatchStatus::Accepted,
        reason: result.reason,
    })
}

impl ClusterShared {
    /// A consistent snapshot of the routing state: the ring plus the
    /// handles of every member (cheap Arc clones; no lock held while
    /// round-trips run).
    fn view(&self) -> (Arc<HashRing>, BTreeMap<u32, Arc<NodeHandle>>) {
        let topo = self.topology.read().unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&topo.ring), topo.handles.clone())
    }

    fn note_failover(&self, handle: &NodeHandle) {
        handle.note_failover();
        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
    }

    fn send(
        &self,
        handle: &NodeHandle,
        request: &Message,
    ) -> (Result<Message, CoreError>, bool) {
        self.stats.routed.fetch_add(1, Ordering::Relaxed);
        handle.send(request)
    }

    /// Routes a batch: round k sends every unsettled item to its k-th
    /// replica, grouped into one sub-batch per node (round-trips stay
    /// O(nodes), and a dead primary costs one extra round, not one per
    /// item). A PUT settles on its first answer; a GET settles on a found
    /// record, while an answered miss keeps probing the later replicas —
    /// it may be an undrained hint — and stands only if none has the
    /// record. A standalone GET or PUT is a batch of one.
    fn route_batch(
        &self,
        app: AppId,
        items: &[BatchItem],
    ) -> Result<Vec<BatchItemResult>, CoreError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let (ring, handles) = self.view();
        if ring.is_empty() {
            return Err(unavailable("cluster ring is empty"));
        }
        let r = self.config.replication.max(1);
        let replicas: Vec<Vec<NodeId>> =
            items.iter().map(|item| ring.replicas(item_tag(item), r)).collect();
        let mut results: Vec<Option<BatchItemResult>> = vec![None; items.len()];
        let mut served_by: Vec<Option<NodeId>> = vec![None; items.len()];
        // Nodes whose round-trip failed during this call.
        let mut failed: BTreeSet<u32> = BTreeSet::new();
        let mut recovered = false;

        let max_rounds = replicas.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..max_rounds {
            let mut by_node: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (i, reps) in replicas.iter().enumerate() {
                let settled = results[i]
                    .as_ref()
                    .is_some_and(|result| result.status != BatchStatus::NotFound);
                if !settled {
                    if let Some(node) = reps.get(round) {
                        by_node.entry(node.0).or_default().push(i);
                    }
                }
            }
            if by_node.is_empty() {
                break;
            }
            for (node_id, idxs) in by_node {
                let Some(handle) = handles.get(&node_id) else { continue };
                let sub: Vec<BatchItem> =
                    idxs.iter().map(|&i| items[i].clone()).collect();
                let (sent, rec) =
                    self.send(handle, &Message::BatchRequest { app, items: sub });
                recovered |= rec;
                match sent {
                    Ok(Message::BatchResponse(rs)) if rs.len() == idxs.len() => {
                        for (result, &i) in rs.into_iter().zip(&idxs) {
                            if results[i].is_none()
                                || result.status != BatchStatus::NotFound
                            {
                                results[i] = Some(result);
                                served_by[i] = Some(NodeId(node_id));
                            }
                        }
                    }
                    Ok(_) | Err(_) => {
                        self.note_failover(handle);
                        failed.insert(node_id);
                    }
                }
            }
        }
        if results.iter().any(Option::is_none) {
            if recovered {
                self.drain_hints();
            }
            return Err(unavailable("no replica reachable for some batch items"));
        }
        let results: Vec<BatchItemResult> = results.into_iter().flatten().collect();

        // Replicate accepted PUT items to the rest of their replica sets,
        // again one sub-batch per node; failures become hints. A replica
        // that already failed during this call is hinted without another
        // doomed send.
        let mut secondary: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            if matches!(item, BatchItem::Get { .. })
                || results[i].status != BatchStatus::Accepted
            {
                continue;
            }
            for node in &replicas[i] {
                if served_by[i] != Some(*node) {
                    secondary.entry(node.0).or_default().push(i);
                }
            }
        }
        for (node_id, idxs) in secondary {
            let Some(handle) = handles.get(&node_id) else { continue };
            let delivered = !failed.contains(&node_id) && {
                let sub: Vec<BatchItem> =
                    idxs.iter().map(|&i| items[i].clone()).collect();
                let (sent, rec) =
                    self.send(handle, &Message::BatchRequest { app, items: sub });
                recovered |= rec;
                let answered = matches!(sent, Ok(Message::BatchResponse(_)));
                if !answered {
                    self.note_failover(handle);
                }
                answered
            };
            if !delivered {
                let puts = idxs.iter().map(|&i| items[i].clone()).collect();
                self.hinted.add(self.hints.park(app, puts));
            }
        }
        if recovered {
            self.drain_hints();
        }
        Ok(results)
    }

    /// Routes one standalone GET or PUT as a batch of one.
    fn route_one(
        &self,
        app: AppId,
        item: BatchItem,
    ) -> Result<BatchItemResult, CoreError> {
        self.route_batch(app, std::slice::from_ref(&item))?
            .pop()
            .ok_or_else(|| unavailable("a batch of one returned no result"))
    }

    /// Fans a `FILTER_REQUEST` to every member and concatenates the shard
    /// filters. The union keeps the no-false-negative contract: a tag
    /// stored on node k is inserted in node k's filter, which is one of
    /// the shards the client merges. Members whose filters are sized
    /// differently do not merge, and the client then keeps no filter. Any
    /// unreachable member fails the whole refresh, so the caller keeps its
    /// previous (stale but conservative) view rather than adopting a filter
    /// that silently omits a node.
    fn fanout_filters(&self) -> Result<Message, CoreError> {
        let (ring, handles) = self.view();
        if ring.is_empty() {
            return Err(unavailable("cluster ring is empty"));
        }
        let mut epoch = 0u64;
        let mut shards = Vec::new();
        for node in ring.nodes() {
            let Some(handle) = handles.get(&node.0) else { continue };
            let (sent, _) = self.send(handle, &Message::FilterRequest);
            match sent {
                Ok(Message::FilterResponse(body)) => {
                    epoch = epoch.max(body.epoch);
                    shards.extend(body.shards);
                }
                Ok(other) => {
                    return Err(CoreError::UnexpectedResponse(format!(
                        "node {} answered FilterRequest with {other:?}",
                        node.0
                    )));
                }
                Err(err) => {
                    self.note_failover(handle);
                    return Err(err);
                }
            }
        }
        Ok(Message::FilterResponse(FilterBody { epoch, shards }))
    }

    /// Fans a `STATS_REQUEST` to every member, summing the scalar counters
    /// and concatenating per-shard sections (a cluster of N nodes × S
    /// shards reports N·S shard sections). Unreachable members are
    /// skipped; at least one must answer.
    fn fanout_stats(&self) -> Result<Message, CoreError> {
        let (ring, handles) = self.view();
        if ring.is_empty() {
            return Err(unavailable("cluster ring is empty"));
        }
        let mut total = StatsBody::default();
        let mut answered = false;
        for node in ring.nodes() {
            let Some(handle) = handles.get(&node.0) else { continue };
            let (sent, _) = self.send(handle, &Message::StatsRequest);
            match sent {
                Ok(Message::StatsResponse(body)) => {
                    answered = true;
                    total.entries += body.entries;
                    total.gets += body.gets;
                    total.hits += body.hits;
                    total.puts += body.puts;
                    total.rejected_puts += body.rejected_puts;
                    total.stored_bytes += body.stored_bytes;
                    total.evictions += body.evictions;
                    total.shards.extend(body.shards);
                }
                Ok(_) | Err(_) => self.note_failover(handle),
            }
        }
        if answered {
            Ok(Message::StatsResponse(total))
        } else {
            Err(unavailable("no cluster member answered StatsRequest"))
        }
    }

    /// Routes a non-keyed message (metrics, sync, …) to the first member
    /// that answers, in ring order.
    fn route_any(&self, request: &Message) -> Result<Message, CoreError> {
        let (ring, handles) = self.view();
        let mut last_err = unavailable("cluster ring is empty");
        for node in ring.nodes() {
            let Some(handle) = handles.get(&node.0) else { continue };
            let (sent, _) = self.send(handle, request);
            match sent {
                Ok(response) => return Ok(response),
                Err(err) => {
                    self.note_failover(handle);
                    last_err = err;
                }
            }
        }
        Err(last_err)
    }

    /// Delivers parked hints, each as a one-item batch re-routed through
    /// the ring current *now* — the departed node a hint was originally
    /// owed to is irrelevant. A hint is retired once every current replica
    /// of its tag answers (duplicate PUTs are idempotent); the first
    /// unreachable replica stops the drain and the hint goes back to the
    /// head.
    fn drain_hints(&self) -> usize {
        let mut delivered = 0;
        while let Some(hint) = self.hints.pop() {
            let (ring, handles) = self.view();
            let request = hint.request();
            let mut all_answered = true;
            for node in ring.replicas(&hint.tag, self.config.replication.max(1)) {
                let Some(handle) = handles.get(&node.0) else { continue };
                if self.send(handle, &request).0.is_err() {
                    self.note_failover(handle);
                    all_answered = false;
                    break;
                }
            }
            if !all_answered {
                self.hints.push_front(hint);
                break;
            }
            self.hints_replayed.inc();
            delivered += 1;
        }
        delivered
    }

    fn install(&self, body: RingBody, handles: BTreeMap<u32, Arc<NodeHandle>>) {
        let ring = Arc::new(HashRing::from_body(&body, self.config.vnodes));
        self.ring_version_tm.set(ring.version());
        self.ring_nodes_tm.set(ring.nodes().len() as u64);
        let mut topo = self.topology.write().unwrap_or_else(PoisonError::into_inner);
        *topo = Topology { body, ring, handles };
    }
}

/// Builder for a [`ClusterClient`]: declare members and their connectors.
pub struct ClusterBuilder {
    config: ClusterConfig,
    members: Vec<(RingNodeBody, Connector)>,
}

impl fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("members", &self.members.len())
            .finish_non_exhaustive()
    }
}

impl ClusterBuilder {
    /// Adds a weight-1 member with no advertised address.
    pub fn node(self, id: u32, connector: Connector) -> Self {
        self.member(RingNodeBody { id, addr: String::new(), weight: 1 }, connector)
    }

    /// Adds a member with an explicit address and ring weight.
    pub fn member(mut self, node: RingNodeBody, connector: Connector) -> Self {
        self.members.push((node, connector));
        self
    }

    /// Builds the client with topology version 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StoreUnavailable`] if no member has weight > 0.
    pub fn build(self) -> Result<ClusterClient, CoreError> {
        if !self.members.iter().any(|(n, _)| n.weight > 0) {
            return Err(unavailable("cluster has no members with weight > 0"));
        }
        let reg = speed_telemetry::global();
        let shared = ClusterShared {
            hints: ReplayQueue::with_series(
                self.config.hint_capacity,
                reg.counter(
                    names::CLUSTER_HINTS_DROPPED_TOTAL,
                    "Hinted PUTs evicted because the bounded hint queue overflowed",
                ),
                reg.gauge(
                    names::CLUSTER_HINT_QUEUE_DEPTH,
                    "PUTs currently parked in the cluster hint queue",
                ),
            ),
            hinted: reg.counter(
                names::CLUSTER_HINTED_PUTS_TOTAL,
                "Acknowledged PUTs parked as hints because a replica was down",
            ),
            hints_replayed: reg.counter(
                names::CLUSTER_HINTS_REPLAYED_TOTAL,
                "Hinted PUTs delivered after re-routing through the current ring",
            ),
            stats: ClusterStats::default(),
            ring_version_tm: reg.gauge(
                names::CLUSTER_RING_VERSION,
                "Version of the ring the cluster client currently routes by",
            ),
            ring_nodes_tm: reg.gauge(
                names::CLUSTER_RING_NODES,
                "Member nodes on the ring the cluster client currently routes by",
            ),
            topology: RwLock::new(Topology {
                body: RingBody::default(),
                ring: Arc::new(HashRing::build(0, &[], 1)),
                handles: BTreeMap::new(),
            }),
            config: self.config,
        };
        let mut body = RingBody { version: 1, nodes: Vec::new() };
        let mut handles = BTreeMap::new();
        for (node, connector) in self.members {
            handles.insert(
                node.id,
                NodeHandle::new(NodeId(node.id), connector, &shared.config),
            );
            body.nodes.push(node);
        }
        shared.install(body, handles);
        Ok(ClusterClient { shared: Arc::new(shared) })
    }
}

/// A [`StoreClient`] spanning a set of store nodes: consistent-hash
/// routing, R-way replication with write-quorum 1, read-from-any GETs,
/// hinted handoff, and independent per-node reconnect-and-re-attest.
///
/// Cloning is cheap and clones share all state (ring, hints, breakers), so
/// a runtime that reconnects through a fresh clone keeps what the cluster
/// has learned.
#[derive(Clone)]
pub struct ClusterClient {
    shared: Arc<ClusterShared>,
}

impl fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ring, _) = self.shared.view();
        f.debug_struct("ClusterClient")
            .field("ring_version", &ring.version())
            .field("nodes", &ring.nodes().len())
            .field("hints", &self.shared.hints.len())
            .finish_non_exhaustive()
    }
}

impl ClusterClient {
    /// Starts declaring a cluster.
    pub fn builder(config: ClusterConfig) -> ClusterBuilder {
        ClusterBuilder { config, members: Vec::new() }
    }

    /// The membership view the client currently routes by.
    pub fn ring_body(&self) -> RingBody {
        self.shared.topology.read().unwrap_or_else(PoisonError::into_inner).body.clone()
    }

    /// The version of the ring the client currently routes by.
    pub fn ring_version(&self) -> u64 {
        let (ring, _) = self.shared.view();
        ring.version()
    }

    /// The current replica set of `tag`, primary first.
    pub fn replicas_of(&self, tag: &CompTag) -> Vec<NodeId> {
        let (ring, _) = self.shared.view();
        ring.replicas(tag, self.shared.config.replication.max(1))
    }

    /// Scalar counters of this client (see [`ClusterCounts`]).
    pub fn counts(&self) -> ClusterCounts {
        ClusterCounts {
            routed: self.shared.stats.routed.load(Ordering::Relaxed),
            failovers: self.shared.stats.failovers.load(Ordering::Relaxed),
            hinted_puts: self.shared.hinted.get(),
            hints_replayed: self.shared.hints_replayed.get(),
            hints_dropped: self.shared.hints.dropped(),
        }
    }

    /// PUTs currently parked in the hint queue.
    pub fn hint_depth(&self) -> usize {
        self.shared.hints.len()
    }

    /// Re-attested reconnects performed against node `id` so far.
    pub fn reattestations(&self, id: u32) -> u64 {
        let (_, handles) = self.shared.view();
        handles.get(&id).map(|h| h.stats.reconnects.get()).unwrap_or(0)
    }

    /// Attempts to deliver parked hints now (also triggered automatically
    /// whenever a down node is observed answering again). Returns the
    /// number of hints delivered.
    pub fn drain_hints(&self) -> usize {
        self.shared.drain_hints()
    }

    /// Adds (or re-weights) a member and bumps the topology version.
    /// Existing tags whose replica set changes are served by the new
    /// owners from the next request on; ~K/N of K keys move.
    pub fn add_node(&self, node: RingNodeBody, connector: Connector) {
        let (mut body, mut handles) = {
            let topo =
                self.shared.topology.read().unwrap_or_else(PoisonError::into_inner);
            (topo.body.clone(), topo.handles.clone())
        };
        body.version += 1;
        body.nodes.retain(|n| n.id != node.id);
        handles.insert(
            node.id,
            NodeHandle::new(NodeId(node.id), connector, &self.shared.config),
        );
        body.nodes.push(node);
        self.shared.install(body, handles);
    }

    /// Removes a member and bumps the topology version. Hints parked for
    /// the departed node are re-routed to the new owners at drain time —
    /// a queued PUT cannot land on a node that left the ring.
    pub fn remove_node(&self, id: u32) {
        let (mut body, mut handles) = {
            let topo =
                self.shared.topology.read().unwrap_or_else(PoisonError::into_inner);
            (topo.body.clone(), topo.handles.clone())
        };
        body.version += 1;
        body.nodes.retain(|n| n.id != id);
        handles.remove(&id);
        self.shared.install(body, handles);
    }

    /// Fetches the ring view of the first member that answers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StoreUnavailable`] if no member answers, or
    /// [`CoreError::UnexpectedResponse`] on a non-ring reply.
    pub fn fetch_ring(&self) -> Result<RingBody, CoreError> {
        match self.shared.route_any(&Message::RingRequest)? {
            Message::RingResponse(body) => Ok(body),
            other => Err(CoreError::UnexpectedResponse(format!(
                "RingRequest answered with {other:?}"
            ))),
        }
    }

    /// Adopts a newer membership view, building connectors for previously
    /// unknown members via `connect`. A view whose version is not strictly
    /// newer is ignored (returns `false`).
    ///
    /// # Errors
    ///
    /// Propagates `connect` failures; the current topology is kept.
    pub fn apply_ring_with(
        &self,
        body: &RingBody,
        connect: &mut dyn FnMut(&RingNodeBody) -> Result<Connector, CoreError>,
    ) -> Result<bool, CoreError> {
        let current = {
            let topo =
                self.shared.topology.read().unwrap_or_else(PoisonError::into_inner);
            (topo.body.version, topo.handles.clone())
        };
        if body.version <= current.0 {
            return Ok(false);
        }
        let mut handles = BTreeMap::new();
        for node in &body.nodes {
            if node.weight == 0 {
                continue;
            }
            let handle = match current.1.get(&node.id) {
                Some(existing) => Arc::clone(existing),
                None => {
                    NodeHandle::new(NodeId(node.id), connect(node)?, &self.shared.config)
                }
            };
            handles.insert(node.id, handle);
        }
        self.shared.install(body.clone(), handles);
        Ok(true)
    }
}

impl StoreClient for ClusterClient {
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
        match request {
            Message::GetRequest { app, tag } => {
                let result = self.shared.route_one(*app, BatchItem::Get { tag: *tag })?;
                Ok(Message::GetResponse(GetResponseBody {
                    found: result.record.is_some(),
                    record: result.record,
                }))
            }
            // The retired prefilter of a `PutPrefiltered` is dropped, as
            // the store would ignore it.
            Message::PutRequest { app, tag, record }
            | Message::PutPrefiltered { app, tag, record, .. } => {
                let item = BatchItem::Put { tag: *tag, record: record.clone() };
                Ok(put_response(self.shared.route_one(*app, item)?))
            }
            Message::BatchRequest { app, items } => {
                Ok(Message::BatchResponse(self.shared.route_batch(*app, items)?))
            }
            Message::FilterRequest => self.shared.fanout_filters(),
            Message::StatsRequest => self.shared.fanout_stats(),
            Message::RingRequest => Ok(Message::RingResponse(self.ring_body())),
            other => self.shared.route_any(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{OutageSwitch, SwitchedClient};
    use crate::client::InProcessClient;
    use speed_enclave::{CostModel, Platform};
    use speed_store::{ResultStore, StoreConfig};
    use speed_wire::{GetResponseBody, Record, SessionAuthority};
    use std::time::Duration;

    fn tag_of(seed: u64) -> CompTag {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8] = 0xA5;
        CompTag::from_bytes(bytes)
    }

    fn record_of(fill: u8) -> Record {
        Record {
            challenge: vec![fill; 16],
            wrapped_key: [fill; 16],
            nonce: [fill; 12],
            boxed_result: vec![fill; 24],
        }
    }

    fn members(n: u32) -> Vec<(NodeId, u32)> {
        (0..n).map(|id| (NodeId(id), 1)).collect()
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::build(1, &members(3), 64);
        let mut counts = BTreeMap::new();
        for seed in 0..3000u64 {
            let node = ring.primary(&tag_of(seed)).unwrap();
            *counts.entry(node.0).or_insert(0u32) += 1;
        }
        for (&node, &count) in &counts {
            let share = f64::from(count) / 3000.0;
            assert!(
                (0.15..=0.55).contains(&share),
                "node {node} owns {share:.2} of the keyspace"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_keys_only_to_it() {
        let before = HashRing::build(1, &members(3), 64);
        let after = HashRing::build(2, &members(4), 64);
        let mut moved = 0u32;
        let total = 4000u64;
        for seed in 0..total {
            let tag = tag_of(seed);
            let old = before.primary(&tag).unwrap();
            let new = after.primary(&tag).unwrap();
            if old != new {
                // The consistent-hash invariant: ownership only ever moves
                // *to the new node*, never shuffles between survivors.
                assert_eq!(new, NodeId(3), "tag {seed} moved {old:?} → {new:?}");
                moved += 1;
            }
        }
        let share = f64::from(moved) / total as f64;
        assert!((0.10..=0.45).contains(&share), "moved share {share:.2}, want ~1/4");
    }

    #[test]
    fn replicas_are_distinct_and_bounded() {
        let ring = HashRing::build(1, &members(3), 32);
        for seed in 0..200u64 {
            let replicas = ring.replicas(&tag_of(seed), 2);
            assert_eq!(replicas.len(), 2);
            assert_ne!(replicas[0], replicas[1]);
            // Asking for more replicas than members returns every member.
            assert_eq!(ring.replicas(&tag_of(seed), 9).len(), 3);
        }
    }

    #[test]
    fn weighted_nodes_own_proportionally_more() {
        let ring = HashRing::build(1, &[(NodeId(0), 1), (NodeId(1), 3)], 64);
        let mut heavy = 0u32;
        for seed in 0..4000u64 {
            if ring.primary(&tag_of(seed)) == Some(NodeId(1)) {
                heavy += 1;
            }
        }
        let share = f64::from(heavy) / 4000.0;
        assert!((0.60..=0.90).contains(&share), "weight-3 node owns {share:.2}");
    }

    struct TestCluster {
        client: ClusterClient,
        stores: Vec<Arc<ResultStore>>,
        switches: Vec<Arc<OutageSwitch>>,
        /// Round trips sent to each node, failed ones included.
        sends: Vec<Arc<AtomicU64>>,
    }

    /// A client that counts the round trips it is asked to send.
    #[derive(Debug)]
    struct Counted {
        inner: SwitchedClient,
        sends: Arc<AtomicU64>,
    }

    impl StoreClient for Counted {
        fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
            self.sends.fetch_add(1, Ordering::Relaxed);
            self.inner.roundtrip(request)
        }
    }

    fn fast_node_resilience() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker: crate::resilience::BreakerConfig {
                failure_threshold: 100, // keep the breaker out of unit tests
                cooldown: Duration::from_millis(1),
            },
            call_budget: Duration::from_secs(1),
            replay_capacity: 1,
            jitter_seed: Some(7),
        }
    }

    fn test_cluster(n: u32) -> TestCluster {
        let platform = Platform::new(CostModel::no_sgx());
        let authority = Arc::new(SessionAuthority::with_seed(99));
        let enclave = platform.create_enclave(b"cluster-test").unwrap();
        let mut builder = ClusterClient::builder(ClusterConfig {
            node_resilience: fast_node_resilience(),
            ..ClusterConfig::default()
        });
        let mut stores = Vec::new();
        let mut switches = Vec::new();
        let mut sends = Vec::new();
        for id in 0..n {
            let store =
                Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
            let switch = Arc::new(OutageSwitch::new());
            let sent = Arc::new(AtomicU64::new(0));
            let connector: Connector = {
                let store = Arc::clone(&store);
                let switch = Arc::clone(&switch);
                let sent = Arc::clone(&sent);
                let authority = Arc::clone(&authority);
                let platform = Arc::clone(&platform);
                let enclave = Arc::clone(&enclave);
                Box::new(move || {
                    if switch.is_down() {
                        return Err(unavailable("node is down"));
                    }
                    let inner = InProcessClient::connect(
                        Arc::clone(&store),
                        &authority,
                        &platform,
                        &enclave,
                    )?;
                    Ok(Box::new(Counted {
                        inner: SwitchedClient::new(Box::new(inner), Arc::clone(&switch)),
                        sends: Arc::clone(&sent),
                    }) as Box<dyn StoreClient>)
                })
            };
            builder = builder.node(id, connector);
            stores.push(store);
            switches.push(switch);
            sends.push(sent);
        }
        TestCluster { client: builder.build().unwrap(), stores, switches, sends }
    }

    fn get(client: &mut ClusterClient, seed: u64) -> bool {
        match client
            .roundtrip(&Message::GetRequest { app: AppId(1), tag: tag_of(seed) })
            .unwrap()
        {
            Message::GetResponse(GetResponseBody { found, .. }) => found,
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn put(client: &mut ClusterClient, seed: u64) -> Result<Message, CoreError> {
        client.roundtrip(&Message::PutRequest {
            app: AppId(1),
            tag: tag_of(seed),
            record: record_of(seed as u8),
        })
    }

    #[test]
    fn put_replicates_to_r_nodes_and_get_reads_any() {
        // A PUT costs one node round trip per replica, min(R, nodes) with
        // R = 2, and a GET costs one on every ring size.
        for nodes in 1..=3 {
            let mut cluster = test_cluster(nodes);
            let replicas = nodes.min(2) as usize;
            assert!(matches!(
                put(&mut cluster.client, 7).unwrap(),
                Message::PutResponse(body) if body.accepted
            ));
            assert_eq!(cluster.client.counts().routed, replicas as u64);
            // The record lives on exactly min(R, nodes) stores.
            let holders: usize = cluster
                .stores
                .iter()
                .filter(|s| {
                    matches!(
                        s.handle(Message::GetRequest { app: AppId(1), tag: tag_of(7) }),
                        Message::GetResponse(body) if body.found
                    )
                })
                .count();
            assert_eq!(holders, replicas);
            assert!(get(&mut cluster.client, 7));
            assert_eq!(cluster.client.counts().routed, replicas as u64 + 1);
            assert!(!get(&mut cluster.client, 8));
        }
    }

    /// A batch shaped like a runtime's one round trip, its GET items first
    /// and then its proven misses' PUT items, on a 3-node ring at R = 2.
    /// Every item has primary A and second replica B, so round 1 is one
    /// send to A, round 2 one send to B for the GETs A answered NotFound,
    /// and replication one more send to B for the PUTs A accepted — or,
    /// with B down, a hint for each of them and no second send to B.
    #[test]
    fn mixed_batch_probes_rank_two_and_replicates_its_puts() {
        let mut cluster = test_cluster(3);
        let owners = cluster.client.replicas_of(&tag_of(0));
        let (a, b) = (owners[0].0 as usize, owners[1].0 as usize);
        let seeds: Vec<u64> = (0..)
            .filter(|&seed| cluster.client.replicas_of(&tag_of(seed)) == owners)
            .take(7)
            .collect();
        let [both, on_b, absent, ref puts @ ..] = seeds[..] else { unreachable!() };
        // `both` lives on both replicas; `on_b` only on B, as an undrained
        // hint leaves it.
        put(&mut cluster.client, both).unwrap();
        let hint = BatchItem::Put { tag: tag_of(on_b), record: record_of(on_b as u8) };
        cluster.stores[b]
            .handle(Message::BatchRequest { app: AppId(1), items: vec![hint] });
        let holders = |cluster: &TestCluster, seed: u64| -> Vec<usize> {
            (0..3)
                .filter(|&node| {
                    matches!(
                        cluster.stores[node]
                            .handle(Message::GetRequest { app: AppId(1), tag: tag_of(seed) }),
                        Message::GetResponse(body) if body.found
                    )
                })
                .collect()
        };
        let mixed = |cluster: &mut TestCluster, puts: &[u64]| {
            let before: Vec<u64> =
                cluster.sends.iter().map(|s| s.load(Ordering::Relaxed)).collect();
            let items = [both, on_b, absent]
                .iter()
                .map(|&seed| BatchItem::Get { tag: tag_of(seed) })
                .chain(puts.iter().map(|&seed| BatchItem::Put {
                    tag: tag_of(seed),
                    record: record_of(seed as u8),
                }))
                .collect();
            let response = cluster
                .client
                .roundtrip(&Message::BatchRequest { app: AppId(1), items })
                .unwrap();
            let Message::BatchResponse(results) = response else { panic!("not a batch") };
            let statuses: Vec<BatchStatus> = results.iter().map(|r| r.status).collect();
            let sent: Vec<u64> = cluster
                .sends
                .iter()
                .zip(&before)
                .map(|(s, before)| s.load(Ordering::Relaxed) - before)
                .collect();
            (statuses, sent)
        };
        let per_node = |a_sends: u64, b_sends: u64| {
            let mut sent = vec![0; 3];
            sent[a] = a_sends;
            sent[b] = b_sends;
            sent
        };
        use BatchStatus::{Accepted, Found, NotFound};

        let (statuses, sent) = mixed(&mut cluster, &puts[..2]);
        assert_eq!(statuses, [Found, Found, NotFound, Accepted, Accepted]);
        assert_eq!(sent, per_node(1, 2));
        for &seed in &puts[..2] {
            assert_eq!(holders(&cluster, seed), [a.min(b), a.max(b)]);
        }
        assert_eq!(cluster.client.hint_depth(), 0);

        // B down: its rank-2 probe fails once, so `on_b` reads NotFound,
        // and the accepted PUTs are hinted for B with no second send.
        cluster.switches[b].set_down(true);
        let (statuses, sent) = mixed(&mut cluster, &puts[2..]);
        assert_eq!(statuses, [Found, NotFound, NotFound, Accepted, Accepted]);
        assert_eq!(sent, per_node(1, 1));
        assert_eq!(cluster.client.hint_depth(), 2);
        for &seed in &puts[2..] {
            assert_eq!(holders(&cluster, seed), vec![a]);
        }
    }

    #[test]
    fn killed_primary_fails_over_and_hints_drain_on_rejoin() {
        let mut cluster = test_cluster(3);
        let replicas = cluster.client.replicas_of(&tag_of(42));
        let primary = replicas[0].0 as usize;
        // Warm-up miss: attests a session to both replicas, so the later
        // rejoin is a *re*-attestation, not the initial handshake.
        assert!(!get(&mut cluster.client, 42));

        // Kill the primary: the PUT is still acknowledged (by the second
        // replica) and a hint is parked for the dead node.
        cluster.switches[primary].set_down(true);
        assert!(matches!(
            put(&mut cluster.client, 42).unwrap(),
            Message::PutResponse(body) if body.accepted
        ));
        assert_eq!(cluster.client.hint_depth(), 1);
        // One failed send: the replication step hints the dead primary
        // instead of trying it a second time.
        assert_eq!(cluster.client.counts().failovers, 1);
        // The GET fails over past the dead primary and still finds it:
        // one failed send, then the replica's answer.
        let before = cluster.client.counts();
        assert!(get(&mut cluster.client, 42));
        let after = cluster.client.counts();
        assert_eq!((after.routed - before.routed, after.failovers), (2, 2));

        // Rejoin: the next request that touches the node triggers the
        // drain, restoring R-way replication on the revived primary.
        cluster.switches[primary].set_down(false);
        assert!(get(&mut cluster.client, 42));
        assert_eq!(cluster.client.hint_depth(), 0);
        assert_eq!(cluster.client.counts().hints_replayed, 1);
        assert!(matches!(
            cluster.stores[primary]
                .handle(Message::GetRequest { app: AppId(1), tag: tag_of(42) }),
            Message::GetResponse(body) if body.found
        ));
        // The rejoin reconnected — and therefore re-attested — the node.
        assert!(cluster.client.reattestations(primary as u32) >= 1);
    }

    #[test]
    fn hints_reroute_through_the_current_ring_after_departure() {
        let mut cluster = test_cluster(3);
        let replicas = cluster.client.replicas_of(&tag_of(11));
        let (primary, secondary) = (replicas[0].0, replicas[1].0);

        // Primary down at PUT time: acknowledged by the secondary, hinted.
        cluster.switches[primary as usize].set_down(true);
        assert!(put(&mut cluster.client, 11).is_ok());
        assert_eq!(cluster.client.hint_depth(), 1);

        // The primary *leaves the ring* before ever coming back. The hint
        // must not chase it: at drain time it re-routes to the current
        // owners of the tag.
        cluster.client.remove_node(primary);
        assert_eq!(cluster.client.drain_hints(), 1);
        let new_replicas = cluster.client.replicas_of(&tag_of(11));
        assert!(!new_replicas.contains(&NodeId(primary)));
        for node in &new_replicas {
            assert!(
                matches!(
                    cluster.stores[node.0 as usize]
                        .handle(Message::GetRequest { app: AppId(1), tag: tag_of(11) }),
                    Message::GetResponse(body) if body.found
                ),
                "current replica {node} should hold the re-routed PUT"
            );
        }
        // The departed node never received it.
        assert!(matches!(
            cluster.stores[primary as usize]
                .handle(Message::GetRequest { app: AppId(1), tag: tag_of(11) }),
            Message::GetResponse(body) if !body.found
        ));
        let _ = secondary;
    }

    #[test]
    fn whole_cluster_down_surfaces_store_unavailable() {
        let mut cluster = test_cluster(2);
        for switch in &cluster.switches {
            switch.set_down(true);
        }
        assert!(matches!(
            put(&mut cluster.client, 1),
            Err(CoreError::StoreUnavailable(_))
        ));
        assert!(matches!(
            cluster
                .client
                .roundtrip(&Message::GetRequest { app: AppId(1), tag: tag_of(1) }),
            Err(CoreError::StoreUnavailable(_))
        ));
        // No replica ever acknowledged, so nothing was parked as a hint.
        assert_eq!(cluster.client.hint_depth(), 0);
    }

    #[test]
    fn batch_splits_by_node_and_merges_in_request_order() {
        let mut cluster = test_cluster(3);
        let items: Vec<BatchItem> = (0..16u64)
            .map(|seed| BatchItem::Put {
                tag: tag_of(seed),
                record: record_of(seed as u8),
            })
            .collect();
        let response = cluster
            .client
            .roundtrip(&Message::BatchRequest { app: AppId(1), items })
            .unwrap();
        let Message::BatchResponse(results) = response else { panic!("not a batch") };
        assert_eq!(results.len(), 16);
        assert!(results.iter().all(|r| r.status == BatchStatus::Accepted));

        // Mixed batch: every GET finds its record, in request order.
        let items: Vec<BatchItem> = (0..16u64)
            .map(|seed| BatchItem::Get { tag: tag_of(seed) })
            .chain(std::iter::once(BatchItem::Get { tag: tag_of(999) }))
            .collect();
        let response = cluster
            .client
            .roundtrip(&Message::BatchRequest { app: AppId(1), items })
            .unwrap();
        let Message::BatchResponse(results) = response else { panic!("not a batch") };
        assert_eq!(results.len(), 17);
        assert!(results[..16].iter().all(|r| r.status == BatchStatus::Found));
        assert_eq!(results[16].status, BatchStatus::NotFound);
    }

    #[test]
    fn batch_survives_a_killed_node() {
        let mut cluster = test_cluster(3);
        cluster.switches[0].set_down(true);
        let items: Vec<BatchItem> = (0..12u64)
            .map(|seed| BatchItem::Put {
                tag: tag_of(seed),
                record: record_of(seed as u8),
            })
            .collect();
        let response = cluster
            .client
            .roundtrip(&Message::BatchRequest { app: AppId(1), items })
            .unwrap();
        let Message::BatchResponse(results) = response else { panic!("not a batch") };
        assert!(results.iter().all(|r| r.status == BatchStatus::Accepted));
        // The dead node is tried once; its replica copies become hints.
        assert_eq!(cluster.client.counts().failovers, 1);
        let items: Vec<BatchItem> =
            (0..12u64).map(|seed| BatchItem::Get { tag: tag_of(seed) }).collect();
        let response = cluster
            .client
            .roundtrip(&Message::BatchRequest { app: AppId(1), items })
            .unwrap();
        let Message::BatchResponse(results) = response else { panic!("not a batch") };
        assert!(results.iter().all(|r| r.status == BatchStatus::Found));
    }

    #[test]
    fn filters_union_across_nodes_and_fail_closed() {
        let mut cluster = test_cluster(3);
        for seed in 0..6u64 {
            put(&mut cluster.client, seed).unwrap();
        }
        let Message::FilterResponse(body) =
            cluster.client.roundtrip(&Message::FilterRequest).unwrap()
        else {
            panic!("not a filter response")
        };
        let per_node = match cluster.stores[0].handle(Message::FilterRequest) {
            Message::FilterResponse(b) => b.shards.len(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(body.shards.len(), per_node * 3);
        // With one member down the refresh fails (the caller keeps its
        // previous, conservative view) rather than shipping a partial
        // union that would break no-false-negatives.
        cluster.switches[1].set_down(true);
        assert!(cluster.client.roundtrip(&Message::FilterRequest).is_err());
    }

    #[test]
    fn stats_sum_across_nodes() {
        let mut cluster = test_cluster(3);
        for seed in 0..8u64 {
            put(&mut cluster.client, seed).unwrap();
            assert!(get(&mut cluster.client, seed));
        }
        let Message::StatsResponse(body) =
            cluster.client.roundtrip(&Message::StatsRequest).unwrap()
        else {
            panic!("not a stats response")
        };
        // 8 PUTs × R=2 replicas.
        assert_eq!(body.puts, 16);
        assert_eq!(body.entries, 16);
        assert!(body.hits >= 8);
    }

    #[test]
    fn ring_request_answers_with_the_local_view() {
        let mut cluster = test_cluster(3);
        let Message::RingResponse(body) =
            cluster.client.roundtrip(&Message::RingRequest).unwrap()
        else {
            panic!("not a ring response")
        };
        assert_eq!(body.version, 1);
        assert_eq!(body.nodes.len(), 3);
        cluster.client.remove_node(2);
        assert_eq!(cluster.client.ring_body().version, 2);
        assert_eq!(cluster.client.ring_body().nodes.len(), 2);
    }

    #[test]
    fn apply_ring_ignores_stale_views_and_adopts_newer_ones() {
        let cluster = test_cluster(2);
        let mut connect_calls = 0usize;
        let mut connect = |_: &RingNodeBody| -> Result<Connector, CoreError> {
            connect_calls += 1;
            Ok(Box::new(|| Err(unavailable("unused"))))
        };
        let stale = RingBody { version: 1, nodes: vec![] };
        assert!(!cluster.client.apply_ring_with(&stale, &mut connect).unwrap());

        let mut newer = cluster.client.ring_body();
        newer.version = 5;
        newer.nodes.push(RingNodeBody { id: 9, addr: "x:1".into(), weight: 1 });
        assert!(cluster.client.apply_ring_with(&newer, &mut connect).unwrap());
        assert_eq!(connect_calls, 1); // only the unknown node dialed
        assert_eq!(cluster.client.ring_version(), 5);
        assert_eq!(cluster.client.ring_body().nodes.len(), 3);
    }
}
