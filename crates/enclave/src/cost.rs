//! The SGX cost model and the simulated clock it charges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Latency model for the SGX mechanisms the simulator charges for.
///
/// Defaults are calibrated to published measurements for the paper's era of
/// hardware (Skylake/Kaby Lake, SGX1): an `ECALL`/`OCALL` world switch costs
/// roughly 8,000–14,000 cycles (~3–5 µs at 2.8 GHz; HotCalls, ISCA'17), and
/// an EPC page fault (EWB + ELDU round trip) roughly 40,000 cycles (~14 µs;
/// Eleos, EuroSys'17).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of entering an enclave (`ECALL`), in nanoseconds.
    pub ecall_ns: u64,
    /// Cost of exiting an enclave for a system service (`OCALL`), in
    /// nanoseconds.
    pub ocall_ns: u64,
    /// Cost of an EPC page fault (evict + reload one 4 KiB page), in
    /// nanoseconds.
    pub page_fault_ns: u64,
    /// Per-byte cost of crossing the enclave boundary (copying arguments
    /// in or out of protected memory), in picoseconds per byte.
    pub boundary_copy_ps_per_byte: u64,
}

impl CostModel {
    /// The calibrated SGX model used for "with SGX" measurements.
    pub fn default_sgx() -> Self {
        CostModel {
            ecall_ns: 3_600,
            ocall_ns: 3_200,
            page_fault_ns: 14_000,
            boundary_copy_ps_per_byte: 80,
        }
    }

    /// A zero-cost model: the "without SGX" baseline of Fig. 6.
    pub fn no_sgx() -> Self {
        CostModel {
            ecall_ns: 0,
            ocall_ns: 0,
            page_fault_ns: 0,
            boundary_copy_ps_per_byte: 0,
        }
    }

    /// Returns the boundary-copy cost in nanoseconds for `bytes` bytes.
    pub fn boundary_copy_ns(&self, bytes: usize) -> u64 {
        (self.boundary_copy_ps_per_byte * bytes as u64) / 1_000
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::default_sgx()
    }
}

/// A monotonically increasing simulated clock, shared between all enclaves
/// on a [`crate::Platform`].
///
/// Real computation runs natively; only the *modelled* SGX overheads (world
/// switches, paging, boundary copies) are charged here. Experiment harnesses
/// report `real elapsed + simulated overhead` as the total.
///
/// Each enclave charges a cell of its own, on cache lines no other cell
/// uses, so enclaves that run on different threads never contend for the
/// clock; [`total_ns`](SimClock::total_ns) sums the cells.
#[derive(Debug, Default)]
pub struct SimClock {
    /// Charges made through the clock itself (EPC paging), and the final
    /// charges of cells whose enclaves have gone.
    ns: AtomicU64,
    cells: Mutex<Vec<Arc<ClockCell>>>,
}

/// An enclave's own share of a [`SimClock`].
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct ClockCell(AtomicU64);

impl ClockCell {
    /// Charges `ns` nanoseconds of simulated time to the clock.
    pub(crate) fn charge_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl SimClock {
    /// Creates a clock at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(SimClock::default())
    }

    /// Charges `ns` nanoseconds of simulated time.
    pub fn charge_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A new cell of this clock, for one enclave to charge. Cells no
    /// enclave holds any more are folded into the clock first, so the
    /// total stays the same.
    pub(crate) fn cell(&self) -> Arc<ClockCell> {
        let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        cells.retain_mut(|cell| match Arc::get_mut(cell) {
            Some(gone) => {
                self.ns.fetch_add(*gone.0.get_mut(), Ordering::Relaxed);
                false
            }
            None => true,
        });
        let cell = Arc::new(ClockCell::default());
        cells.push(Arc::clone(&cell));
        cell
    }

    /// Returns total simulated nanoseconds charged so far.
    pub fn total_ns(&self) -> u64 {
        let cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        let charged: u64 = cells.iter().map(|cell| cell.0.load(Ordering::Relaxed)).sum();
        self.ns.load(Ordering::Relaxed) + charged
    }

    /// Resets the clock to zero (between experiment trials).
    pub fn reset(&self) {
        let cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        for cell in cells.iter() {
            cell.0.store(0, Ordering::Relaxed);
        }
        self.ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sgx_model() {
        assert_eq!(CostModel::default(), CostModel::default_sgx());
        assert!(CostModel::default().ecall_ns > 0);
    }

    #[test]
    fn no_sgx_is_free() {
        let m = CostModel::no_sgx();
        assert_eq!(m.ecall_ns + m.ocall_ns + m.page_fault_ns, 0);
        assert_eq!(m.boundary_copy_ns(1 << 20), 0);
    }

    #[test]
    fn boundary_copy_scales_linearly() {
        let m = CostModel::default_sgx();
        assert_eq!(m.boundary_copy_ns(0), 0);
        let one_kib = m.boundary_copy_ns(1024);
        let one_mib = m.boundary_copy_ns(1024 * 1024);
        assert!(one_mib >= one_kib * 1000);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let clock = SimClock::new();
        clock.charge_ns(5);
        clock.charge_ns(7);
        assert_eq!(clock.total_ns(), 12);
        clock.reset();
        assert_eq!(clock.total_ns(), 0);
    }

    #[test]
    fn enclave_cells_sum_into_the_clock_and_outlive_their_enclaves() {
        let clock = SimClock::new();
        let (a, b) = (clock.cell(), clock.cell());
        clock.charge_ns(1);
        a.charge_ns(10);
        b.charge_ns(100);
        assert_eq!(clock.total_ns(), 111);
        drop(a);
        assert_eq!(clock.total_ns(), 111, "a dropped cell still counts");
        let c = clock.cell();
        assert_eq!(clock.total_ns(), 111, "folding it changes no total");
        c.charge_ns(1000);
        assert_eq!(clock.total_ns(), 1111);
        clock.reset();
        assert_eq!(clock.total_ns(), 0);
        b.charge_ns(5);
        assert_eq!(clock.total_ns(), 5);
    }

    #[test]
    fn clock_is_thread_safe() {
        let clock = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&clock);
                s.spawn(move || {
                    let cell = c.cell();
                    for _ in 0..1000 {
                        c.charge_ns(1);
                        cell.charge_ns(2);
                    }
                });
            }
        });
        assert_eq!(clock.total_ns(), 24_000);
    }
}
