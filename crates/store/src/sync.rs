//! Master-store synchronization (§IV-B Remark).
//!
//! "We can also deploy a master ResultStore on a dedicated server, which
//! periodically synchronizes the popular (i.e., frequently appeared)
//! results from different machines. […] the tags of underlying computations
//! are deterministic and only one version of result ciphertext […] needs to
//! be stored."
//!
//! Sync runs in-process, between [`ResultStore`] handles: it has no wire
//! message. The source's [`ResultStore::export_popular`] feeds the
//! target's [`ResultStore::import_entries`], which keeps each entry's hit
//! count and charges no application's quota.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::store::ResultStore;

/// Pulls entries with at least `min_hits` hits from `source` and merges
/// them into `target`. Returns how many entries the target accepted.
///
/// The least popular entry is imported first: a target at capacity evicts
/// in insertion order, so it then keeps the most popular ones.
///
/// Duplicate tags are harmless: the target keeps its first version, and
/// eligible applications can decrypt either copy because both were produced
/// from the same `(func, m)`.
pub fn sync_once(source: &ResultStore, target: &ResultStore, min_hits: u64) -> usize {
    let mut entries = source.export_popular(min_hits);
    entries.reverse();
    target.import_entries(entries)
}

/// A background daemon that periodically syncs several machine-local
/// stores into a master store.
#[derive(Debug)]
pub struct SyncDaemon {
    stop: Arc<AtomicBool>,
    rounds: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl SyncDaemon {
    /// Spawns a daemon syncing each of `sources` into `master` every
    /// `interval`, selecting entries with at least `min_hits` hits.
    pub fn spawn(
        sources: Vec<Arc<ResultStore>>,
        master: Arc<ResultStore>,
        min_hits: u64,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));
        let stop_flag = Arc::clone(&stop);
        let rounds_counter = Arc::clone(&rounds);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                for source in &sources {
                    sync_once(source, &master, min_hits);
                }
                rounds_counter.fetch_add(1, Ordering::Relaxed);
                // Sleep in small slices so shutdown is responsive.
                let mut slept = Duration::ZERO;
                while slept < interval && !stop_flag.load(Ordering::Relaxed) {
                    let slice = Duration::from_millis(5).min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        });
        SyncDaemon { stop, rounds, handle: Some(handle) }
    }

    /// Number of completed sync rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Stops the daemon and joins its thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SyncDaemon {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use speed_enclave::{CostModel, Platform};
    use speed_wire::{AppId, CompTag, Message, Record};

    fn new_store() -> Arc<ResultStore> {
        let platform = Platform::new(CostModel::no_sgx());
        Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap())
    }

    fn put_and_hit(store: &ResultStore, n: u8, hits: usize) {
        let tag = CompTag::from_bytes([n; 32]);
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag,
            record: Record {
                challenge: vec![n; 32],
                wrapped_key: [n; 16],
                nonce: [n; 12],
                boxed_result: vec![n; 24],
            },
        });
        for _ in 0..hits {
            store.handle(Message::GetRequest { app: AppId(1), tag });
        }
    }

    #[test]
    fn sync_once_moves_only_popular() {
        let source = new_store();
        let master = new_store();
        put_and_hit(&source, 1, 5);
        put_and_hit(&source, 2, 0);
        let moved = sync_once(&source, &master, 2);
        assert_eq!(moved, 1);
        let hit = master.handle(Message::GetRequest {
            app: AppId(9),
            tag: CompTag::from_bytes([1; 32]),
        });
        assert!(matches!(hit, Message::GetResponse(b) if b.found));
        let miss = master.handle(Message::GetRequest {
            app: AppId(9),
            tag: CompTag::from_bytes([2; 32]),
        });
        assert!(matches!(miss, Message::GetResponse(b) if !b.found));
    }

    #[test]
    fn a_full_master_keeps_the_most_popular_entries() {
        let source = new_store();
        for (n, hits) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            put_and_hit(&source, n, hits);
        }
        let platform = Platform::new(CostModel::no_sgx());
        let master =
            ResultStore::new(&platform, StoreConfig::with_capacity(2, u64::MAX)).unwrap();
        sync_once(&source, &master, 1);
        let kept: Vec<u8> = (1..=4)
            .filter(|&n| {
                let tag = CompTag::from_bytes([n; 32]);
                matches!(
                    master.handle(Message::GetRequest { app: AppId(9), tag }),
                    Message::GetResponse(b) if b.found
                )
            })
            .collect();
        assert_eq!(kept, [3, 4], "the 30- and 40-hit entries must stay");
    }

    #[test]
    fn sync_is_idempotent() {
        let source = new_store();
        let master = new_store();
        put_and_hit(&source, 1, 3);
        sync_once(&source, &master, 1);
        sync_once(&source, &master, 1);
        assert_eq!(master.stats().entries, 1);
    }

    #[test]
    fn daemon_syncs_multiple_sources() {
        let s1 = new_store();
        let s2 = new_store();
        let master = new_store();
        put_and_hit(&s1, 1, 2);
        put_and_hit(&s2, 2, 2);
        let daemon = SyncDaemon::spawn(
            vec![Arc::clone(&s1), Arc::clone(&s2)],
            Arc::clone(&master),
            1,
            Duration::from_millis(1),
        );
        // Wait for at least one full round.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.rounds() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.shutdown();
        assert_eq!(master.stats().entries, 2);
    }

    #[test]
    fn daemon_shutdown_is_prompt_despite_long_interval() {
        let daemon = SyncDaemon::spawn(
            vec![new_store()],
            new_store(),
            1,
            Duration::from_secs(3600),
        );
        // Let the daemon finish a round so it is deep in its hour-long
        // sleep when we ask it to stop.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.rounds() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let start = std::time::Instant::now();
        daemon.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown must interrupt the sleep, not wait out the interval"
        );
    }
}
