//! The simulated enclave: measured code identity, metered world switches,
//! and EPC-accounted memory.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use speed_telemetry::{names, Counter};

use crate::cost::{ClockCell, CostModel, SimClock};
use crate::epc::EpcAllocator;
use crate::error::EnclaveError;
use crate::measurement::Measurement;

thread_local! {
    /// Depth of [`SwitchlessGuard`]s live on this thread. While non-zero,
    /// the thread is a resident in-enclave worker: `ecall`/`ocall` bodies
    /// run without paying (or counting) a world switch.
    static SWITCHLESS_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Counters describing one enclave's boundary traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnclaveStats {
    /// Number of `ECALL`s performed (host → enclave).
    pub ecalls: u64,
    /// Number of `OCALL`s performed (enclave → host).
    pub ocalls: u64,
    /// Calls served switchlessly by a resident worker thread — these pay
    /// boundary-copy costs but no world switch.
    pub switchless_calls: u64,
    /// Bytes copied across the boundary in either direction.
    pub boundary_bytes: u64,
    /// Simulated nanoseconds charged by this enclave's switches/copies.
    pub charged_ns: u64,
}

impl EnclaveStats {
    /// Total world switches (`ECALL`s + `OCALL`s) — the quantity the
    /// batched request pipeline and the switchless call path minimize.
    /// Switchless calls are deliberately excluded: they never leave or
    /// enter the enclave.
    pub fn transitions(&self) -> u64 {
        self.ecalls + self.ocalls
    }
}

/// RAII marker held by a resident in-enclave worker thread (the switchless
/// call pattern: the worker enters the enclave once via a real `ECALL` and
/// then drains a shared-memory request ring without further transitions).
///
/// While the guard is live on a thread, [`Enclave::ecall`] /
/// [`Enclave::ocall`] on *any* enclave run their body without a world
/// switch: no `ecall_ns`/`ocall_ns` charge, no transition count — only the
/// boundary-copy costs of the `_with_bytes` variants, because request and
/// response bytes still travel through untrusted shared memory.
///
/// The guard is `!Send`: it marks the current OS thread, and must be
/// dropped on it.
#[derive(Debug)]
pub struct SwitchlessGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for SwitchlessGuard {
    fn drop(&mut self) {
        SWITCHLESS_DEPTH.with(|depth| depth.set(depth.get().saturating_sub(1)));
    }
}

/// A simulated SGX enclave.
///
/// Created via [`crate::Platform::create_enclave`]. Closures passed to
/// [`ecall`](Enclave::ecall) run "inside" the enclave; closures passed to
/// [`ocall`](Enclave::ocall) model the enclave calling out to the untrusted
/// host. Both charge the platform's [`SimClock`] per the [`CostModel`].
#[derive(Debug)]
pub struct Enclave {
    id: u64,
    measurement: Measurement,
    clock: Arc<SimClock>,
    /// This enclave's own cell of `clock`.
    clock_cell: Arc<ClockCell>,
    epc: Arc<EpcAllocator>,
    model: CostModel,
    ecalls: Counter,
    ocalls: Counter,
    switchless_calls: Counter,
    boundary_bytes: Counter,
    charged_ns: Counter,
    epc_committed: AtomicU64,
}

impl Enclave {
    pub(crate) fn new(
        id: u64,
        measurement: Measurement,
        clock: Arc<SimClock>,
        epc: Arc<EpcAllocator>,
        model: CostModel,
        initial_commit: usize,
    ) -> Result<Self, EnclaveError> {
        epc.commit(initial_commit)?;
        let registry = speed_telemetry::global();
        let transitions = |kind| {
            registry.counter_with(
                names::ENCLAVE_TRANSITIONS_TOTAL,
                "World switches performed, by kind (ecall = host->enclave entry, \
                 ocall = enclave->host exit)",
                &[("kind", kind)],
            )
        };
        Ok(Enclave {
            id,
            measurement,
            clock_cell: clock.cell(),
            clock,
            epc,
            model,
            ecalls: transitions("ecall"),
            ocalls: transitions("ocall"),
            switchless_calls: registry.counter(
                names::ENCLAVE_SWITCHLESS_CALLS_TOTAL,
                "Enclave calls served by a resident switchless worker without \
                 a world switch",
            ),
            boundary_bytes: registry.counter(
                names::ENCLAVE_BOUNDARY_BYTES_TOTAL,
                "Bytes copied across the enclave boundary in either direction",
            ),
            charged_ns: registry.counter(
                names::ENCLAVE_CHARGED_NS_TOTAL,
                "Modeled nanoseconds charged for world switches and boundary copies",
            ),
            epc_committed: AtomicU64::new(initial_commit as u64),
        })
    }

    /// This enclave's platform-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This enclave's code measurement (`MRENCLAVE`).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The cost model in force for this enclave.
    pub fn cost_model(&self) -> CostModel {
        self.model
    }

    /// Enters the enclave (`ECALL`), runs `body` inside, and returns its
    /// result. Charges one world-switch entry plus exit.
    ///
    /// `_name` labels the call for debugging; it mirrors the named ECALL
    /// table of the SGX SDK's EDL files.
    pub fn ecall<R>(&self, _name: &str, body: impl FnOnce() -> R) -> R {
        if switchless_active() {
            self.switchless_calls.inc();
            return body();
        }
        self.charge(self.model.ecall_ns);
        self.ecalls.inc();
        body()
    }

    /// Enters the enclave passing `args_len` bytes of marshalled arguments
    /// and returning `ret_len` bytes, charging boundary-copy costs.
    pub fn ecall_with_bytes<R>(
        &self,
        name: &str,
        args_len: usize,
        ret_len: usize,
        body: impl FnOnce() -> R,
    ) -> R {
        self.charge_copy(args_len + ret_len);
        self.ecall(name, body)
    }

    /// Leaves the enclave (`OCALL`) to run `body` in the untrusted host.
    pub fn ocall<R>(&self, _name: &str, body: impl FnOnce() -> R) -> R {
        if switchless_active() {
            self.switchless_calls.inc();
            return body();
        }
        self.charge(self.model.ocall_ns);
        self.ocalls.inc();
        body()
    }

    /// Leaves the enclave with `args_len` bytes out and `ret_len` bytes
    /// back, charging boundary-copy costs.
    pub fn ocall_with_bytes<R>(
        &self,
        name: &str,
        args_len: usize,
        ret_len: usize,
        body: impl FnOnce() -> R,
    ) -> R {
        self.charge_copy(args_len + ret_len);
        self.ocall(name, body)
    }

    /// Charges boundary-copy cost for `bytes` bytes without a world switch
    /// (used when a payload's size is only known after an `OCALL` returns).
    pub fn charge_boundary_bytes(&self, bytes: usize) {
        self.charge_copy(bytes);
    }

    /// Commits `bytes` of additional protected memory for this enclave.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::EpcExhausted`] if the platform EPC cannot
    /// satisfy the commit.
    pub fn commit_memory(&self, bytes: usize) -> Result<(), EnclaveError> {
        self.epc.commit(bytes)?;
        self.epc_committed.fetch_add(bytes as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Releases `bytes` of protected memory.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::InvalidFree`] when releasing more than this
    /// enclave committed.
    pub fn release_memory(&self, bytes: usize) -> Result<(), EnclaveError> {
        let committed = self.epc_committed.load(Ordering::Relaxed);
        if bytes as u64 > committed {
            return Err(EnclaveError::InvalidFree {
                requested: bytes,
                allocated: committed as usize,
            });
        }
        self.epc.release(bytes)?;
        self.epc_committed.fetch_sub(bytes as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Protected bytes currently committed by this enclave.
    pub fn committed_bytes(&self) -> u64 {
        self.epc_committed.load(Ordering::Relaxed)
    }

    /// Marks the calling thread as a resident in-enclave worker until the
    /// returned guard drops (the switchless call pattern): every
    /// `ecall`/`ocall` issued on this thread while the guard is live runs
    /// its body without a world switch and is counted in
    /// [`EnclaveStats::switchless_calls`] instead of
    /// [`EnclaveStats::transitions`].
    ///
    /// Call this from *inside* a real [`ecall`](Enclave::ecall) body — the
    /// worker pays one transition to take up residence, then serves its
    /// requests switchlessly.
    pub fn enter_switchless(&self) -> SwitchlessGuard {
        SWITCHLESS_DEPTH.with(|depth| depth.set(depth.get() + 1));
        SwitchlessGuard { _not_send: PhantomData }
    }

    /// Returns a snapshot of this enclave's counters.
    pub fn stats(&self) -> EnclaveStats {
        EnclaveStats {
            ecalls: self.ecalls.get(),
            ocalls: self.ocalls.get(),
            switchless_calls: self.switchless_calls.get(),
            boundary_bytes: self.boundary_bytes.get(),
            charged_ns: self.charged_ns.get(),
        }
    }

    /// The simulated clock shared with the platform.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    fn charge(&self, ns: u64) {
        self.clock_cell.charge_ns(ns);
        self.charged_ns.add(ns);
    }

    fn charge_copy(&self, bytes: usize) {
        let ns = self.model.boundary_copy_ns(bytes);
        self.boundary_bytes.add(bytes as u64);
        self.charge(ns);
    }
}

/// Whether the current thread holds a live [`SwitchlessGuard`].
fn switchless_active() -> bool {
    SWITCHLESS_DEPTH.with(|depth| depth.get() > 0)
}

impl Drop for Enclave {
    fn drop(&mut self) {
        // Return committed pages to the platform; ignore errors per
        // C-DTOR-FAIL (destructors never fail).
        let committed = self.epc_committed.load(Ordering::Relaxed) as usize;
        let _ = self.epc.release(committed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn ecall_runs_body_and_counts() {
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"code").unwrap();
        let out = enclave.ecall("double", || 21 * 2);
        assert_eq!(out, 42);
        let stats = enclave.stats();
        assert_eq!(stats.ecalls, 1);
        assert_eq!(stats.ocalls, 0);
        assert_eq!(stats.charged_ns, CostModel::default_sgx().ecall_ns);
    }

    #[test]
    fn ocall_counts_separately() {
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"code").unwrap();
        enclave.ocall("send", || ());
        enclave.ocall("recv", || ());
        assert_eq!(enclave.stats().ocalls, 2);
    }

    #[test]
    fn byte_variants_charge_copy_costs() {
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"code").unwrap();
        enclave.ecall_with_bytes("put", 1 << 20, 64, || ());
        let stats = enclave.stats();
        assert_eq!(stats.boundary_bytes, (1 << 20) + 64);
        assert!(stats.charged_ns > CostModel::default_sgx().ecall_ns);
    }

    #[test]
    fn no_sgx_model_charges_nothing() {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"code").unwrap();
        enclave.ecall_with_bytes("put", 1 << 20, 1 << 20, || ());
        enclave.ocall("out", || ());
        assert_eq!(enclave.stats().charged_ns, 0);
    }

    #[test]
    fn memory_commit_release_cycle() {
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"code").unwrap();
        enclave.commit_memory(1 << 16).unwrap();
        enclave.release_memory(1 << 16).unwrap();
        assert!(matches!(
            enclave.release_memory(1 << 30),
            Err(EnclaveError::InvalidFree { .. })
        ));
    }

    #[test]
    fn drop_returns_pages_to_platform() {
        let platform = Platform::new(CostModel::default_sgx());
        let before = platform.epc().stats().committed_pages;
        {
            let enclave = platform.create_enclave(b"code").unwrap();
            enclave.commit_memory(1 << 20).unwrap();
            assert!(platform.epc().stats().committed_pages > before);
        }
        assert_eq!(platform.epc().stats().committed_pages, before);
    }

    #[test]
    fn switchless_guard_suppresses_world_switches() {
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"resident-worker").unwrap();
        // The worker enters the enclave once (a real ECALL), then serves
        // calls switchlessly for the guard's lifetime.
        enclave.ecall("switchless_worker_enter", || {
            let _guard = enclave.enter_switchless();
            enclave.ecall_with_bytes("store_get", 32, 128, || ());
            enclave.ecall_with_bytes("store_put", 64, 1, || ());
            enclave.ocall("wal_append", || ());
        });
        let stats = enclave.stats();
        assert_eq!(stats.ecalls, 1, "only the residence entry is a real ECALL");
        assert_eq!(stats.ocalls, 0);
        assert_eq!(stats.switchless_calls, 3);
        assert_eq!(stats.transitions(), 1);
        // Boundary-copy bytes are still charged: the request/response
        // payloads travel through untrusted shared memory either way.
        assert_eq!(stats.boundary_bytes, 32 + 128 + 64 + 1);
    }

    #[test]
    fn switchless_guard_scopes_to_its_thread_and_lifetime() {
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"scoped").unwrap();
        {
            let _guard = enclave.enter_switchless();
            enclave.ecall("inside", || ());
        }
        enclave.ecall("outside", || ());
        let stats = enclave.stats();
        assert_eq!(stats.switchless_calls, 1);
        assert_eq!(stats.ecalls, 1, "calls after the guard drops switch again");
        // Another thread is unaffected by this thread's guard.
        let _guard = enclave.enter_switchless();
        std::thread::scope(|scope| {
            scope.spawn(|| enclave.ecall("other_thread", || ()));
        });
        assert_eq!(enclave.stats().ecalls, 2);
    }

    #[test]
    fn nested_ecall_ocall_pattern() {
        // DedupRuntime's pattern: inside the enclave, OCALL out to the
        // network, then continue inside.
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"app").unwrap();
        let result = enclave.ecall("dedup_call", || {
            let response = enclave.ocall("get_request", || 7u32);
            response + 1
        });
        assert_eq!(result, 8);
        let stats = enclave.stats();
        assert_eq!((stats.ecalls, stats.ocalls), (1, 1));
    }
}
