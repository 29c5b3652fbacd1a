//! Per-application quota and rate limiting.
//!
//! "A malicious application may issue a large number of 'update' requests
//! for polluting the ResultStore with useless results. To defend against it,
//! we can adopt the rate-limiting strategy into SPEED, which involves a
//! quota mechanism to limit the cache space for each application." (§III-D)

use std::collections::HashMap;

use speed_wire::AppId;

/// Limits applied to each application.
///
/// The rate window runs on the store's logical clock, which advances once
/// per GET or PUT item, store-wide: `window_ms` counts items, not
/// milliseconds. One application can therefore put at most `window_ms`
/// items in a window, so the default cap of 10,000 PUTs per 1,000-item
/// window never binds; only the entry and byte quotas do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaPolicy {
    /// Maximum live entries an application may own.
    pub max_entries_per_app: u64,
    /// Maximum total ciphertext bytes an application may have stored.
    pub max_bytes_per_app: u64,
    /// Maximum PUT items per window.
    pub max_puts_per_window: u64,
    /// Rate-limit window length in store items (GETs and PUTs, store-wide).
    pub window_ms: u64,
}

impl QuotaPolicy {
    /// Effectively unlimited (benchmarking configuration).
    pub fn unlimited() -> Self {
        QuotaPolicy {
            max_entries_per_app: u64::MAX,
            max_bytes_per_app: u64::MAX,
            max_puts_per_window: u64::MAX,
            window_ms: 1_000,
        }
    }
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            max_entries_per_app: 100_000,
            max_bytes_per_app: 4 * 1024 * 1024 * 1024,
            max_puts_per_window: 10_000,
            window_ms: 1_000,
        }
    }
}

/// The outcome of a quota check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuotaDecision {
    /// The request may proceed.
    Allow,
    /// The request must be rejected with the given reason.
    Deny(String),
}

impl QuotaDecision {
    /// Whether the decision allows the request.
    pub fn is_allowed(&self) -> bool {
        matches!(self, QuotaDecision::Allow)
    }
}

#[derive(Debug, Default, Clone)]
struct AppUsage {
    entries: u64,
    bytes: u64,
    window_start_ms: u64,
    puts_in_window: u64,
}

/// Tracks per-application usage against a [`QuotaPolicy`].
///
/// Time is injected by the caller (`now_ms`) so the tracker is fully
/// deterministic in tests; the store feeds it a monotonic millisecond clock.
#[derive(Debug)]
pub struct QuotaTracker {
    policy: QuotaPolicy,
    usage: HashMap<AppId, AppUsage>,
}

impl QuotaTracker {
    /// Creates a tracker for `policy`.
    pub fn new(policy: QuotaPolicy) -> Self {
        QuotaTracker { policy, usage: HashMap::new() }
    }

    /// The policy in force.
    pub fn policy(&self) -> QuotaPolicy {
        self.policy
    }

    /// Checks whether `app` may PUT `bytes` more ciphertext at `now_ms`,
    /// and records the PUT if allowed.
    ///
    /// Every attempt — allowed or denied — counts against the rate-limit
    /// window: an application hammering the store with oversized or
    /// otherwise-denied PUTs burns its own request budget and eventually
    /// trips the rate limit instead of retrying for free.
    pub fn check_put(&mut self, app: AppId, bytes: u64, now_ms: u64) -> QuotaDecision {
        let usage = self.usage.entry(app).or_default();
        if now_ms.saturating_sub(usage.window_start_ms) >= self.policy.window_ms {
            usage.window_start_ms = now_ms;
            usage.puts_in_window = 0;
        }
        usage.puts_in_window = usage.puts_in_window.saturating_add(1);
        if usage.puts_in_window > self.policy.max_puts_per_window {
            return QuotaDecision::Deny(format!(
                "rate limit: {} puts in current window",
                usage.puts_in_window
            ));
        }
        if usage.entries >= self.policy.max_entries_per_app {
            return QuotaDecision::Deny(format!(
                "entry quota: {} entries stored",
                usage.entries
            ));
        }
        if usage.bytes.saturating_add(bytes) > self.policy.max_bytes_per_app {
            return QuotaDecision::Deny(format!(
                "byte quota: {} bytes stored, {} requested",
                usage.bytes, bytes
            ));
        }
        usage.entries += 1;
        usage.bytes += bytes;
        QuotaDecision::Allow
    }

    /// Returns quota for an entry that was evicted or replaced.
    pub fn release(&mut self, app: AppId, bytes: u64) {
        if let Some(usage) = self.usage.get_mut(&app) {
            usage.entries = usage.entries.saturating_sub(1);
            usage.bytes = usage.bytes.saturating_sub(bytes);
        }
    }

    /// Current (entries, bytes) charged to `app`.
    pub fn usage(&self, app: AppId) -> (u64, u64) {
        self.usage.get(&app).map_or((0, 0), |u| (u.entries, u.bytes))
    }
}

/// Locks `mutex`, recovering the guard if a previous holder panicked (quota
/// buckets stay consistent across any panic point).
fn lock_bucket<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Quota tracking partitioned by application id.
///
/// Every app's state lives wholly inside one bucket, so per-app semantics
/// are identical to a single [`QuotaTracker`] — the partitioning only
/// removes the global serialization point that one tracker mutex would put
/// on the sharded store's PUT path.
#[derive(Debug)]
pub struct ShardedQuota {
    buckets: Vec<std::sync::Mutex<QuotaTracker>>,
}

impl ShardedQuota {
    /// Creates `buckets` independent trackers sharing `policy` (at least
    /// one).
    pub fn new(policy: QuotaPolicy, buckets: usize) -> Self {
        let buckets = buckets.max(1);
        ShardedQuota {
            buckets: (0..buckets)
                .map(|_| std::sync::Mutex::new(QuotaTracker::new(policy)))
                .collect(),
        }
    }

    fn bucket(&self, app: AppId) -> &std::sync::Mutex<QuotaTracker> {
        &self.buckets[app.0 as usize % self.buckets.len()]
    }

    /// See [`QuotaTracker::check_put`].
    pub fn check_put(&self, app: AppId, bytes: u64, now_ms: u64) -> QuotaDecision {
        lock_bucket(self.bucket(app)).check_put(app, bytes, now_ms)
    }

    /// See [`QuotaTracker::release`].
    pub fn release(&self, app: AppId, bytes: u64) {
        lock_bucket(self.bucket(app)).release(app, bytes);
    }

    /// See [`QuotaTracker::usage`].
    pub fn usage(&self, app: AppId) -> (u64, u64) {
        lock_bucket(self.bucket(app)).usage(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_policy() -> QuotaPolicy {
        QuotaPolicy {
            max_entries_per_app: 3,
            max_bytes_per_app: 100,
            max_puts_per_window: 2,
            window_ms: 1_000,
        }
    }

    #[test]
    fn allows_within_limits() {
        let mut tracker = QuotaTracker::new(small_policy());
        assert!(tracker.check_put(AppId(1), 10, 0).is_allowed());
        assert_eq!(tracker.usage(AppId(1)), (1, 10));
    }

    #[test]
    fn rate_limit_trips_within_window() {
        let mut tracker = QuotaTracker::new(small_policy());
        assert!(tracker.check_put(AppId(1), 1, 0).is_allowed());
        assert!(tracker.check_put(AppId(1), 1, 100).is_allowed());
        let denied = tracker.check_put(AppId(1), 1, 200);
        assert!(matches!(denied, QuotaDecision::Deny(ref r) if r.contains("rate limit")));
    }

    #[test]
    fn denied_puts_count_against_rate_limit() {
        // Regression: denied attempts must burn the rate-limit budget, or a
        // misbehaving app could hammer the store with oversized PUTs forever
        // without ever tripping the rate limiter.
        let mut tracker = QuotaTracker::new(small_policy());
        // Oversized PUT: denied on byte quota, but still counts as attempt #1.
        let denied = tracker.check_put(AppId(1), 500, 0);
        assert!(matches!(denied, QuotaDecision::Deny(ref r) if r.contains("byte quota")));
        assert_eq!(
            tracker.usage(AppId(1)),
            (0, 0),
            "denied PUT must not consume storage quota"
        );
        // Attempt #2 (allowed) exhausts the 2-per-window budget.
        assert!(tracker.check_put(AppId(1), 1, 100).is_allowed());
        // Attempt #3 is rate-limited even though only one PUT was stored.
        let denied = tracker.check_put(AppId(1), 1, 200);
        assert!(matches!(denied, QuotaDecision::Deny(ref r) if r.contains("rate limit")));
    }

    #[test]
    fn rate_limit_resets_after_window() {
        let mut tracker = QuotaTracker::new(small_policy());
        tracker.check_put(AppId(1), 1, 0);
        tracker.check_put(AppId(1), 1, 1);
        assert!(!tracker.check_put(AppId(1), 1, 2).is_allowed());
        assert!(tracker.check_put(AppId(1), 1, 1_000).is_allowed());
    }

    #[test]
    fn entry_quota_trips() {
        let mut tracker = QuotaTracker::new(small_policy());
        for i in 0..3u64 {
            assert!(tracker.check_put(AppId(1), 1, i * 1_000).is_allowed());
        }
        let denied = tracker.check_put(AppId(1), 1, 10_000);
        assert!(
            matches!(denied, QuotaDecision::Deny(ref r) if r.contains("entry quota"))
        );
    }

    #[test]
    fn byte_quota_trips() {
        let mut tracker = QuotaTracker::new(small_policy());
        assert!(tracker.check_put(AppId(1), 90, 0).is_allowed());
        let denied = tracker.check_put(AppId(1), 20, 1_000);
        assert!(matches!(denied, QuotaDecision::Deny(ref r) if r.contains("byte quota")));
    }

    #[test]
    fn quotas_are_per_app() {
        let mut tracker = QuotaTracker::new(small_policy());
        tracker.check_put(AppId(1), 90, 0);
        assert!(tracker.check_put(AppId(2), 90, 0).is_allowed());
    }

    #[test]
    fn release_returns_quota() {
        let mut tracker = QuotaTracker::new(small_policy());
        tracker.check_put(AppId(1), 90, 0);
        tracker.release(AppId(1), 90);
        assert_eq!(tracker.usage(AppId(1)), (0, 0));
        assert!(tracker.check_put(AppId(1), 90, 2_000).is_allowed());
    }

    #[test]
    fn release_unknown_app_is_noop() {
        let mut tracker = QuotaTracker::new(small_policy());
        tracker.release(AppId(42), 10);
        assert_eq!(tracker.usage(AppId(42)), (0, 0));
    }

    #[test]
    fn unlimited_policy_never_denies() {
        let mut tracker = QuotaTracker::new(QuotaPolicy::unlimited());
        for i in 0..1_000u64 {
            assert!(tracker.check_put(AppId(1), 1 << 20, i).is_allowed());
        }
    }

    #[test]
    fn sharded_quota_matches_single_tracker_semantics() {
        let quota = ShardedQuota::new(small_policy(), 4);
        // Two apps landing in different buckets are independent; each app's
        // own limits behave exactly like a lone QuotaTracker.
        assert!(quota.check_put(AppId(1), 90, 0).is_allowed());
        assert!(quota.check_put(AppId(2), 90, 0).is_allowed());
        let denied = quota.check_put(AppId(1), 20, 1_000);
        assert!(matches!(denied, QuotaDecision::Deny(ref r) if r.contains("byte quota")));
        quota.release(AppId(1), 90);
        assert_eq!(quota.usage(AppId(1)), (0, 0));
        assert!(quota.check_put(AppId(1), 90, 2_000).is_allowed());
    }

    #[test]
    fn sharded_quota_shares_buckets_without_cross_talk() {
        // Apps 0 and 4 collide in the same bucket of a 4-way quota; their
        // accounting must still be per-app.
        let quota = ShardedQuota::new(small_policy(), 4);
        assert!(quota.check_put(AppId(0), 90, 0).is_allowed());
        assert!(quota.check_put(AppId(4), 90, 0).is_allowed());
        assert_eq!(quota.usage(AppId(0)), (1, 90));
        assert_eq!(quota.usage(AppId(4)), (1, 90));
    }
}
