//! Fault tolerance for the store path.
//!
//! SPEED's deduplication is an *optimization*: by Algorithm 1's semantics a
//! miss — or any failure to reach the `ResultStore` — must degrade to "just
//! execute the function", never to an application error. This module
//! supplies the machinery the [`crate::DedupRuntime`] uses to honour that
//! invariant against a flaky or restarting store:
//!
//! - [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter drawn from a seeded [`SystemRng`] (no external RNG crate).
//! - [`Deadline`] — a per-round-trip time budget so retries cannot stall a
//!   marked call indefinitely.
//! - [`CircuitBreaker`] — closed → open after N consecutive failures →
//!   half-open probe, so a dead store is not hammered on every call.
//! - [`ReplayQueue`] — a bounded queue of the PUT items that could not be
//!   delivered; drained automatically, each as a one-item batch, once the
//!   store answers again.
//! - [`ResilientClient`] — a [`StoreClient`] wrapper tying it together:
//!   every reconnect runs the full attestation handshake again (a fresh
//!   session key from the `SessionAuthority`), so sequence numbers restart
//!   safely on a brand-new channel.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use speed_crypto::SystemRng;
use speed_telemetry::{names, Counter, Gauge};
use speed_wire::{AppId, BatchItem, CompTag, Message, Record};

use crate::client::StoreClient;
use crate::error::CoreError;

/// A factory producing freshly connected store clients. Each invocation
/// must perform the complete handshake (attestation + session key), so the
/// produced client is usable even after the store restarted.
pub type Connector = Box<dyn FnMut() -> Result<Box<dyn StoreClient>, CoreError> + Send>;

/// Capped exponential backoff with deterministic jitter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per round-trip, including the first (min 1).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling on the exponential growth.
    pub max_delay: Duration,
    /// Fraction of each delay that is randomized, in `[0, 1]`. With
    /// jitter `j`, the actual delay is uniform in `[(1-j)·d, d]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, fail fast).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The backoff delay before retry number `attempt` (0-based: the delay
    /// after the first failed attempt is `backoff(0, ..)`).
    pub fn backoff(&self, attempt: u32, rng: &mut SystemRng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = (1.0 - jitter) + jitter * rng.gen_f64();
        exp.mul_f64(scale)
    }
}

/// A wall-clock budget for one store round-trip including all retries.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline { at: Instant::now() + budget }
    }

    /// Time left before the deadline (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining() == Duration::ZERO
    }
}

/// Circuit-breaker thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, cooldown: Duration::from_millis(250) }
    }
}

/// The breaker's observable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast without touching the store.
    Open,
    /// One probe request is admitted to test recovery.
    HalfOpen,
}

/// Closed → open after N consecutive failures → half-open probe.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Option<Instant>,
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: None,
            transitions: 0,
        }
    }

    /// Current state (does not advance open → half-open; see [`Self::admit`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total state transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    fn transition(&mut self, next: BreakerState) -> bool {
        if self.state == next {
            return false;
        }
        self.state = next;
        self.transitions += 1;
        true
    }

    /// Decides whether a request may proceed at time `now`. Moves an open
    /// breaker whose cooldown elapsed to half-open (admitting the probe).
    /// Returns `(admitted, transitioned)`.
    pub fn admit(&mut self, now: Instant) -> (bool, bool) {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, false),
            BreakerState::Open => {
                if self.open_until.is_some_and(|until| now >= until) {
                    let t = self.transition(BreakerState::HalfOpen);
                    (true, t)
                } else {
                    (false, false)
                }
            }
        }
    }

    /// Records a successful round-trip; closes the breaker. Returns whether
    /// a state transition occurred.
    pub fn record_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        self.open_until = None;
        self.transition(BreakerState::Closed)
    }

    /// Records a failed round-trip at time `now`; may trip the breaker
    /// open. Returns whether a state transition occurred.
    pub fn record_failure(&mut self, now: Instant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => {
                self.open_until = Some(now + self.config.cooldown);
                self.transition(BreakerState::Open)
            }
            BreakerState::Closed
                if self.consecutive_failures >= self.config.failure_threshold =>
            {
                self.open_until = Some(now + self.config.cooldown);
                self.transition(BreakerState::Open)
            }
            _ => false,
        }
    }
}

/// One parked PUT: the app it was published for, its tag and its record.
#[derive(Debug)]
pub(crate) struct ParkedPut {
    pub(crate) app: AppId,
    pub(crate) tag: CompTag,
    record: Record,
}

impl ParkedPut {
    /// The one-item batch that delivers this PUT.
    pub(crate) fn request(&self) -> Message {
        Message::BatchRequest {
            app: self.app,
            items: vec![BatchItem::Put { tag: self.tag, record: self.record.clone() }],
        }
    }
}

/// Bounded FIFO of undeliverable PUT items. When full, the oldest entry is
/// evicted (and counted) — fresher results win. It holds PUTs only, so a
/// GET cannot be parked.
pub struct ReplayQueue {
    inner: Mutex<VecDeque<ParkedPut>>,
    capacity: usize,
    dropped: Counter,
    depth_tm: Gauge,
}

impl fmt::Debug for ReplayQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ReplayQueue {
    /// An empty queue holding at most `capacity` PUTs, counted under the
    /// `resilience_replay_*` series.
    pub fn new(capacity: usize) -> Self {
        let reg = speed_telemetry::global();
        ReplayQueue::with_series(
            capacity,
            reg.counter(
                names::RESILIENCE_REPLAY_DROPPED_TOTAL,
                "Queued PUTs evicted because the bounded replay queue overflowed",
            ),
            reg.gauge(
                names::RESILIENCE_REPLAY_QUEUE_DEPTH,
                "PUTs currently parked in the replay queue",
            ),
        )
    }

    /// An empty queue counted under the given eviction counter and depth
    /// gauge (the cluster's hint queue passes its `cluster_hint*` cells).
    pub(crate) fn with_series(
        capacity: usize,
        dropped: Counter,
        depth_tm: Gauge,
    ) -> Self {
        ReplayQueue {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped,
            depth_tm,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<ParkedPut>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Parks the PUT items of `app`'s failed batch, evicting the oldest
    /// parked PUT whenever the queue is full; GET items are skipped.
    /// Returns how many it parked.
    pub fn park(&self, app: AppId, items: Vec<BatchItem>) -> u64 {
        let mut queue = self.lock();
        let mut parked = 0;
        for item in items {
            let BatchItem::Put { tag, record } = item else { continue };
            if queue.len() >= self.capacity {
                queue.pop_front();
                self.dropped.inc();
                self.depth_tm.sub(1);
            }
            queue.push_back(ParkedPut { app, tag, record });
            self.depth_tm.add(1);
            parked += 1;
        }
        parked
    }

    /// Puts a PUT back at the head (a delivery attempt that failed).
    pub(crate) fn push_front(&self, put: ParkedPut) {
        let mut queue = self.lock();
        if queue.len() >= self.capacity {
            queue.pop_back();
            self.dropped.inc();
            self.depth_tm.sub(1);
        }
        queue.push_front(put);
        self.depth_tm.add(1);
    }

    /// Takes the oldest parked PUT.
    pub(crate) fn pop(&self) -> Option<ParkedPut> {
        let popped = self.lock().pop_front();
        if popped.is_some() {
            self.depth_tm.sub(1);
        }
        popped
    }

    /// PUTs currently parked.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// PUTs evicted because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

impl Drop for ReplayQueue {
    fn drop(&mut self) {
        // The depth gauge aggregates every live queue in the process; give
        // back whatever this queue still holds so it does not leak upward.
        let remaining = self.len() as u64;
        if remaining > 0 {
            self.depth_tm.sub(remaining);
        }
    }
}

/// Shared counters describing the resilience layer's activity. A runtime
/// shares one instance with its [`ResilientClient`], and each cluster
/// member one with its own client; its fields are this instance's cells of
/// the `resilience_*` registry series.
#[derive(Debug)]
pub struct ResilienceStats {
    /// Retried round-trip attempts (not counting the first attempt).
    pub retries: Counter,
    /// Re-established connections (full re-attestation handshakes),
    /// excluding each client's initial connect.
    pub reconnects: Counter,
    /// Circuit-breaker state transitions across all clients.
    pub breaker_transitions: Counter,
    /// Queued PUTs successfully delivered after recovery.
    pub replayed_puts: Counter,
    /// Requests failed fast because the breaker was open.
    pub fast_fails: Counter,
    /// Round-trips abandoned after exhausting retries or the deadline.
    pub giveups: Counter,
}

impl Default for ResilienceStats {
    /// Registers a fresh cell of each series in the global registry.
    fn default() -> Self {
        let reg = speed_telemetry::global();
        ResilienceStats {
            retries: reg.counter(
                names::RESILIENCE_RETRIES_TOTAL,
                "Store round-trip attempts retried with backoff",
            ),
            reconnects: reg.counter(
                names::RESILIENCE_RECONNECTS_TOTAL,
                "Re-established store connections (full re-attestation handshakes)",
            ),
            breaker_transitions: reg.counter(
                names::RESILIENCE_BREAKER_TRANSITIONS_TOTAL,
                "Circuit-breaker state transitions (closed/open/half-open)",
            ),
            replayed_puts: reg.counter(
                names::RESILIENCE_REPLAYED_PUTS_TOTAL,
                "Queued PUTs delivered after the store recovered",
            ),
            fast_fails: reg.counter(
                names::RESILIENCE_FAST_FAILS_TOTAL,
                "Round-trips refused immediately by the open circuit breaker",
            ),
            giveups: reg.counter(
                names::RESILIENCE_GIVEUPS_TOTAL,
                "Round-trips abandoned after exhausting retries or the deadline",
            ),
        }
    }
}

/// Everything [`ResilientClient`] needs to know.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Retry/backoff schedule per round-trip.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Wall-clock budget per round-trip including retries and backoff.
    pub call_budget: Duration,
    /// Maximum undelivered PUTs kept for replay.
    pub replay_capacity: usize,
    /// Seed for the jitter RNG; `None` uses OS entropy. Seeding makes
    /// backoff schedules reproducible in experiments.
    pub jitter_seed: Option<u64>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            call_budget: Duration::from_secs(2),
            replay_capacity: 1024,
            jitter_seed: None,
        }
    }
}

/// A [`StoreClient`] that survives transport faults: retries with backoff,
/// reconnects (re-attesting from scratch) on every failure, trips a
/// circuit breaker when the store looks down, and drains its shared
/// [`ReplayQueue`], if it has one, as soon as a round-trip succeeds again.
///
/// All failures surface as [`CoreError::StoreUnavailable`], which the
/// `DedupRuntime` converts into graceful degradation (local execution for
/// GETs, replay queueing for PUTs).
pub struct ResilientClient {
    connector: Connector,
    inner: Option<Box<dyn StoreClient>>,
    ever_connected: bool,
    config: ResilienceConfig,
    breaker: CircuitBreaker,
    rng: SystemRng,
    stats: Arc<ResilienceStats>,
    replay: Option<Arc<ReplayQueue>>,
}

impl fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientClient")
            .field("connected", &self.inner.is_some())
            .field("breaker", &self.breaker.state())
            .finish_non_exhaustive()
    }
}

impl ResilientClient {
    /// Wraps `connector` with the given policies. `stats` and `replay` may
    /// be shared with other clients of the same runtime; a client without a
    /// queue (a cluster member, whose hints the cluster parks) drains none.
    pub fn new(
        connector: Connector,
        config: ResilienceConfig,
        stats: Arc<ResilienceStats>,
        replay: Option<Arc<ReplayQueue>>,
    ) -> Self {
        let rng = match config.jitter_seed {
            Some(seed) => SystemRng::seeded(seed),
            None => SystemRng::new(),
        };
        ResilientClient {
            connector,
            inner: None,
            ever_connected: false,
            breaker: CircuitBreaker::new(config.breaker),
            rng,
            config,
            stats,
            replay,
        }
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    fn note_transition(&self, transitioned: bool) {
        if transitioned {
            self.stats.breaker_transitions.inc();
        }
    }

    fn try_once(&mut self, request: &Message) -> Result<Message, CoreError> {
        if self.inner.is_none() {
            if self.ever_connected {
                self.stats.reconnects.inc();
            }
            let client = (self.connector)()?;
            self.ever_connected = true;
            self.inner = Some(client);
        }
        self.inner.as_mut().expect("just connected").roundtrip(request)
    }

    /// Delivers parked PUTs through the live connection, each as a one-item
    /// batch. Stops at the first failure (the PUT goes back to the head of
    /// the queue).
    fn drain_replay(&mut self) {
        let Some(replay) = &self.replay else { return };
        while let Some(parked) = replay.pop() {
            let Some(inner) = self.inner.as_mut() else {
                replay.push_front(parked);
                return;
            };
            match inner.roundtrip(&parked.request()) {
                Ok(_) => self.stats.replayed_puts.inc(),
                Err(_) => {
                    replay.push_front(parked);
                    self.inner = None;
                    return;
                }
            }
        }
    }
}

impl StoreClient for ResilientClient {
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
        let (admitted, transitioned) = self.breaker.admit(Instant::now());
        self.note_transition(transitioned);
        if !admitted {
            self.stats.fast_fails.inc();
            return Err(CoreError::StoreUnavailable("circuit breaker open".into()));
        }

        let deadline = Deadline::after(self.config.call_budget);
        let attempts = self.config.retry.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 0..attempts {
            match self.try_once(request) {
                Ok(response) => {
                    let transitioned = self.breaker.record_success();
                    self.note_transition(transitioned);
                    self.drain_replay();
                    return Ok(response);
                }
                Err(err) => {
                    last_error = err.to_string();
                    // The connection is suspect; the next attempt runs the
                    // full handshake again (fresh session key).
                    self.inner = None;
                    let transitioned = self.breaker.record_failure(Instant::now());
                    self.note_transition(transitioned);
                    if self.breaker.state() == BreakerState::Open
                        || attempt + 1 >= attempts
                        || deadline.expired()
                    {
                        break;
                    }
                    self.stats.retries.inc();
                    let backoff = self.config.retry.backoff(attempt, &mut self.rng);
                    std::thread::sleep(backoff.min(deadline.remaining()));
                }
            }
        }
        self.stats.giveups.inc();
        Err(CoreError::StoreUnavailable(last_error))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_wire::GetResponseBody;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn get_request() -> Message {
        Message::GetRequest { app: AppId(1), tag: CompTag::from_bytes([7; 32]) }
    }

    fn ok_response() -> Message {
        Message::GetResponse(GetResponseBody { found: false, record: None })
    }

    fn put_item(byte: u8) -> BatchItem {
        BatchItem::Put {
            tag: CompTag::from_bytes([byte; 32]),
            record: Record {
                challenge: vec![byte; 32],
                wrapped_key: [byte; 16],
                nonce: [byte; 12],
                boxed_result: vec![byte; 8],
            },
        }
    }

    /// A scripted client: each entry is one roundtrip outcome (true = ok).
    /// It records every request it was sent.
    #[derive(Debug)]
    struct Scripted {
        script: Arc<Mutex<VecDeque<bool>>>,
        sent: Arc<Mutex<Vec<Message>>>,
    }

    impl StoreClient for Scripted {
        fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
            self.sent.lock().unwrap().push(request.clone());
            let ok = self.script.lock().unwrap().pop_front().unwrap_or(true);
            if ok {
                Ok(ok_response())
            } else {
                Err(CoreError::UnexpectedResponse("scripted failure".into()))
            }
        }
    }

    /// A connector of scripted clients, the requests they were sent, and
    /// how many times it connected.
    fn scripted_connector(
        outcomes: &[bool],
    ) -> (Connector, Arc<Mutex<Vec<Message>>>, Arc<AtomicUsize>) {
        let script =
            Arc::new(Mutex::new(outcomes.iter().copied().collect::<VecDeque<_>>()));
        let sent = Arc::new(Mutex::new(Vec::new()));
        let connects = Arc::new(AtomicUsize::new(0));
        let sent_out = Arc::clone(&sent);
        let connects_out = Arc::clone(&connects);
        let connector: Connector =
            Box::new(move || {
                connects.fetch_add(1, Ordering::Relaxed);
                Ok(Box::new(Scripted {
                    script: Arc::clone(&script),
                    sent: Arc::clone(&sent),
                }) as Box<dyn StoreClient>)
            });
        (connector, sent_out, connects_out)
    }

    fn calls(sent: &Mutex<Vec<Message>>) -> usize {
        sent.lock().unwrap().len()
    }

    fn fast_config() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_millis(1),
                jitter: 0.5,
            },
            breaker: BreakerConfig {
                failure_threshold: 5,
                cooldown: Duration::from_millis(10),
            },
            call_budget: Duration::from_secs(1),
            replay_capacity: 8,
            jitter_seed: Some(42),
        }
    }

    fn client(connector: Connector, config: ResilienceConfig) -> ResilientClient {
        ResilientClient::new(
            connector,
            config.clone(),
            Arc::new(ResilienceStats::default()),
            Some(Arc::new(ReplayQueue::new(config.replay_capacity))),
        )
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            jitter: 0.0,
        };
        let mut rng = SystemRng::seeded(1);
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(20));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(40));
        assert_eq!(policy.backoff(3, &mut rng), Duration::from_millis(80));
        assert_eq!(policy.backoff(9, &mut rng), Duration::from_millis(80));
        // Huge attempt numbers must not overflow.
        assert_eq!(policy.backoff(u32::MAX, &mut rng), Duration::from_millis(80));
    }

    #[test]
    fn jitter_is_deterministic_for_a_seed() {
        let policy = RetryPolicy {
            jitter: 0.5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
            max_attempts: 3,
        };
        let a: Vec<_> = {
            let mut rng = SystemRng::seeded(9);
            (0..4).map(|i| policy.backoff(i, &mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = SystemRng::seeded(9);
            (0..4).map(|i| policy.backoff(i, &mut rng)).collect()
        };
        assert_eq!(a, b);
        // Jittered delays stay within [(1-j)·d, d].
        assert!(a[0] >= Duration::from_millis(50) && a[0] <= Duration::from_millis(100));
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(5),
        });
        let now = Instant::now();
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.record_failure(now);
        breaker.record_failure(now);
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.record_failure(now);
        assert_eq!(breaker.state(), BreakerState::Open);
        // While open, requests are rejected.
        assert!(!breaker.admit(now).0);
        // After the cooldown a probe is admitted (half-open).
        let later = now + Duration::from_millis(6);
        assert!(breaker.admit(later).0);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // Probe failure re-opens; probe success closes.
        breaker.record_failure(later);
        assert_eq!(breaker.state(), BreakerState::Open);
        let much_later = later + Duration::from_millis(6);
        assert!(breaker.admit(much_later).0);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.transitions(), 5);
    }

    #[test]
    fn retries_until_success() {
        let (connector, sent, connects) = scripted_connector(&[false, false, true]);
        let mut client = client(connector, fast_config());
        let response = client.roundtrip(&get_request()).unwrap();
        assert_eq!(response, ok_response());
        assert_eq!(calls(&sent), 3);
        // Each failure forced a fresh handshake: 3 connects total.
        assert_eq!(connects.load(Ordering::Relaxed), 3);
        assert_eq!(client.stats.retries.get(), 2);
        assert_eq!(client.stats.reconnects.get(), 2);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let (connector, sent, _) = scripted_connector(&[false; 10]);
        let mut client = client(connector, fast_config());
        let err = client.roundtrip(&get_request()).unwrap_err();
        assert!(matches!(err, CoreError::StoreUnavailable(_)));
        assert_eq!(calls(&sent), 3);
        assert_eq!(client.stats.giveups.get(), 1);
    }

    #[test]
    fn connector_failure_is_retried() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts_inner = Arc::clone(&attempts);
        let connector: Connector = Box::new(move || {
            attempts_inner.fetch_add(1, Ordering::Relaxed);
            Err(CoreError::StoreUnavailable("connection refused".into()))
        });
        let mut client = client(connector, fast_config());
        assert!(client.roundtrip(&get_request()).is_err());
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn breaker_opens_and_fails_fast() {
        let mut config = fast_config();
        config.breaker.failure_threshold = 2; // trips during the first call
        config.breaker.cooldown = Duration::from_secs(60);
        let (connector, sent, _) = scripted_connector(&[false; 10]);
        let mut client = client(connector, config);
        assert!(client.roundtrip(&get_request()).is_err());
        assert_eq!(client.breaker_state(), BreakerState::Open);
        let calls_before = calls(&sent);
        // While open, the store is not touched at all.
        let err = client.roundtrip(&get_request()).unwrap_err();
        assert!(matches!(err, CoreError::StoreUnavailable(_)));
        assert_eq!(calls(&sent), calls_before);
        assert_eq!(client.stats.fast_fails.get(), 1);
    }

    #[test]
    fn half_open_probe_recovers_and_drains_replay() {
        let mut config = fast_config();
        config.breaker.failure_threshold = 1;
        config.breaker.cooldown = Duration::from_millis(1);
        config.retry = RetryPolicy::none();
        let (connector, sent, _) = scripted_connector(&[false, true, true, true, true]);
        let stats = Arc::new(ResilienceStats::default());
        let replay = Arc::new(ReplayQueue::new(8));
        let mut client = ResilientClient::new(
            connector,
            config,
            Arc::clone(&stats),
            Some(Arc::clone(&replay)),
        );

        // First call fails and trips the breaker; a failed batch's PUTs go
        // to replay, and its GET cannot.
        assert!(client.roundtrip(&get_request()).is_err());
        let batch =
            vec![put_item(1), BatchItem::Get { tag: CompTag::from_bytes([9; 32]) }];
        assert_eq!(replay.park(AppId(4), batch), 1);
        assert_eq!(replay.park(AppId(5), vec![put_item(2)]), 1);
        assert_eq!(replay.len(), 2);

        std::thread::sleep(Duration::from_millis(2));
        // Half-open probe succeeds, closes the breaker, drains the queue.
        assert!(client.roundtrip(&get_request()).is_ok());
        assert_eq!(client.breaker_state(), BreakerState::Closed);
        assert_eq!(replay.len(), 0);
        assert_eq!(stats.replayed_puts.get(), 2);
        // Each parked PUT went out as a one-item batch of its own app, in
        // the order it was parked, after the probe.
        let sent = sent.lock().unwrap();
        assert_eq!(
            sent[2..],
            [
                Message::BatchRequest { app: AppId(4), items: vec![put_item(1)] },
                Message::BatchRequest { app: AppId(5), items: vec![put_item(2)] },
            ]
        );
    }

    #[test]
    fn a_failed_drain_puts_the_put_back_at_the_head() {
        let mut config = fast_config();
        config.retry = RetryPolicy::none();
        // The call succeeds, then the first replay fails.
        let (connector, sent, _) = scripted_connector(&[true, false, true, true]);
        let replay = Arc::new(ReplayQueue::new(8));
        let mut client = ResilientClient::new(
            connector,
            config,
            Arc::new(ResilienceStats::default()),
            Some(Arc::clone(&replay)),
        );
        replay.park(AppId(1), vec![put_item(1), put_item(2)]);
        assert!(client.roundtrip(&get_request()).is_ok());
        assert_eq!(replay.len(), 2, "the drain stopped at its first failure");
        assert!(client.roundtrip(&get_request()).is_ok());
        assert!(replay.is_empty());
        let sent = sent.lock().unwrap();
        let first = Message::BatchRequest { app: AppId(1), items: vec![put_item(1)] };
        assert_eq!(sent[1], first);
        assert_eq!(sent[3], first, "the failed PUT is retried first");
    }

    #[test]
    fn replay_queue_bounds_and_eviction() {
        let queue = ReplayQueue::new(2);
        assert_eq!(queue.park(AppId(1), vec![put_item(1), put_item(2)]), 2);
        assert_eq!(queue.dropped(), 0);
        assert_eq!(queue.park(AppId(1), vec![put_item(3)]), 1); // evicts the oldest
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.dropped(), 1);
        assert_eq!(queue.pop().unwrap().tag, CompTag::from_bytes([2; 32]));
        assert_eq!(queue.pop().unwrap().tag, CompTag::from_bytes([3; 32]));
        assert!(queue.pop().is_none());
        assert!(queue.is_empty());
    }

    #[test]
    fn deadline_expires() {
        let deadline = Deadline::after(Duration::from_millis(1));
        assert!(!deadline.expired() || deadline.remaining() == Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), Duration::ZERO);
    }
}
