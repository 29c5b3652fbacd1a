//! Per-application storage quotas.
//!
//! "A malicious application may issue a large number of 'update' requests
//! for polluting the ResultStore with useless results. To defend against it,
//! we can adopt the rate-limiting strategy into SPEED, which involves a
//! quota mechanism to limit the cache space for each application." (§III-D)

use std::collections::HashMap;

use speed_wire::AppId;

/// Limits on what each application may keep stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaPolicy {
    /// Maximum live entries an application may own.
    pub max_entries_per_app: u64,
    /// Maximum total ciphertext bytes an application may have stored.
    pub max_bytes_per_app: u64,
}

impl QuotaPolicy {
    /// Effectively unlimited (benchmarking configuration).
    pub fn unlimited() -> Self {
        QuotaPolicy { max_entries_per_app: u64::MAX, max_bytes_per_app: u64::MAX }
    }
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            max_entries_per_app: 100_000,
            max_bytes_per_app: 4 * 1024 * 1024 * 1024,
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
}

/// Tracks per-application usage against a [`QuotaPolicy`].
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

    /// Checks whether `app` may PUT `bytes` more ciphertext, and records
    /// the PUT if allowed.
    pub fn check_put(&mut self, app: AppId, bytes: u64) -> QuotaDecision {
        let usage = self.usage.entry(app).or_default();
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
    pub fn check_put(&self, app: AppId, bytes: u64) -> QuotaDecision {
        lock_bucket(self.bucket(app)).check_put(app, bytes)
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
        QuotaPolicy { max_entries_per_app: 3, max_bytes_per_app: 100 }
    }

    #[test]
    fn allows_within_limits() {
        let mut tracker = QuotaTracker::new(small_policy());
        assert!(tracker.check_put(AppId(1), 10).is_allowed());
        assert_eq!(tracker.usage(AppId(1)), (1, 10));
    }

    #[test]
    fn entry_quota_trips() {
        let mut tracker = QuotaTracker::new(small_policy());
        for _ in 0..3 {
            assert!(tracker.check_put(AppId(1), 1).is_allowed());
        }
        let denied = tracker.check_put(AppId(1), 1);
        assert!(
            matches!(denied, QuotaDecision::Deny(ref r) if r.contains("entry quota"))
        );
    }

    #[test]
    fn byte_quota_trips() {
        let mut tracker = QuotaTracker::new(small_policy());
        assert!(tracker.check_put(AppId(1), 90).is_allowed());
        let denied = tracker.check_put(AppId(1), 20);
        assert!(matches!(denied, QuotaDecision::Deny(ref r) if r.contains("byte quota")));
    }

    #[test]
    fn quotas_are_per_app() {
        let mut tracker = QuotaTracker::new(small_policy());
        tracker.check_put(AppId(1), 90);
        assert!(tracker.check_put(AppId(2), 90).is_allowed());
    }

    #[test]
    fn release_returns_quota() {
        let mut tracker = QuotaTracker::new(small_policy());
        tracker.check_put(AppId(1), 90);
        tracker.release(AppId(1), 90);
        assert_eq!(tracker.usage(AppId(1)), (0, 0));
        assert!(tracker.check_put(AppId(1), 90).is_allowed());
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
        for _ in 0..1_000 {
            assert!(tracker.check_put(AppId(1), 1 << 20).is_allowed());
        }
    }

    #[test]
    fn sharded_quota_matches_single_tracker_semantics() {
        let quota = ShardedQuota::new(small_policy(), 4);
        // Two apps landing in different buckets are independent; each app's
        // own limits behave exactly like a lone QuotaTracker.
        assert!(quota.check_put(AppId(1), 90).is_allowed());
        assert!(quota.check_put(AppId(2), 90).is_allowed());
        let denied = quota.check_put(AppId(1), 20);
        assert!(matches!(denied, QuotaDecision::Deny(ref r) if r.contains("byte quota")));
        quota.release(AppId(1), 90);
        assert_eq!(quota.usage(AppId(1)), (0, 0));
        assert!(quota.check_put(AppId(1), 90).is_allowed());
    }

    #[test]
    fn sharded_quota_shares_buckets_without_cross_talk() {
        // Apps 0 and 4 collide in the same bucket of a 4-way quota; their
        // accounting must still be per-app.
        let quota = ShardedQuota::new(small_policy(), 4);
        assert!(quota.check_put(AppId(0), 90).is_allowed());
        assert!(quota.check_put(AppId(4), 90).is_allowed());
        assert_eq!(quota.usage(AppId(0)), (1, 90));
        assert_eq!(quota.usage(AppId(4)), (1, 90));
    }
}
