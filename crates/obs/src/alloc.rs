//! Opt-in counting global allocator with per-phase attribution.
//!
//! [`CountingAlloc`] wraps [`System`] (or any [`GlobalAlloc`]) and, when
//! tracking is switched on for a run, counts every allocation into
//! relaxed process-global atomics: bytes allocated, allocation and free
//! counts, live bytes and the peak of live bytes. Each allocation is
//! additionally attributed to the *active pipeline phase* — a small
//! fixed slot table ([`PHASE_SLOTS`]) kept in sync with the collector's
//! span stack by [`set_phase`] — so a [`MemStats`] snapshot carries a
//! per-phase memory table next to the per-phase time table.
//!
//! # Cost model
//!
//! The allocator must be installed once per binary
//! (`#[global_allocator] static A: CountingAlloc = CountingAlloc::system();`).
//! While tracking is off — the default — every allocation pays exactly
//! two relaxed loads and two predictable branches on top of the system
//! allocator; there is no locking, no TLS registration and no
//! allocation from within the hooks, so the disabled path is not
//! measurable in wall time. While tracking is on, events accumulate in
//! a per-thread batch (a `const`-initialised thread-local `Cell`, so no
//! lazy init and no destructor) that is published into the shared
//! atomics only every [`FLUSH_EVENTS`] events, on [`FLUSH_BYTES`] of
//! live-byte drift, or on a phase change — amortising the shared
//! cache-line traffic to a fraction of an RMW per allocation.
//!
//! # Attribution model
//!
//! Pipeline phases are driven serially by one thread, so a single
//! process-global "current phase" index is accurate: *every* allocation
//! in the phase's wall-clock window — including those made by worker
//! threads the phase fans out to — belongs to that phase. Allocations
//! outside any recognised phase land in the `"other"` slot.
//!
//! # Caveats
//!
//! Counters are process-global: two concurrently *tracked* runs in one
//! process interleave their numbers (the pipeline never does this; tests
//! that enable tracking must serialise). Frees of memory allocated
//! before tracking started can push the live counter negative; it is
//! clamped to zero on read. Batching makes the numbers slightly lazy:
//! [`live_bytes`] and the peak can lag reality by up to [`FLUSH_BYTES`]
//! per active thread — acceptable for the estimated accounting this
//! module provides. A worker thread must publish its residue with
//! [`flush_thread`] before it exits (the pipeline's pool does); a
//! thread that exits without it loses the residue, which is bounded by
//! the same thresholds but adds up over many short-lived workers. A fresh tracking
//! window bumps an epoch, so stale batches from a previous window are
//! discarded rather than leaking into the new one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The fixed attribution slots, in report order. The last slot,
/// `"other"`, absorbs allocations made outside any recognised phase.
pub const PHASE_SLOTS: [&str; 8] = [
    "enrich",
    "prematch",
    "subgraph",
    "selection",
    "remainder",
    "evolution",
    "patterns",
    "other",
];

/// Index of the `"other"` catch-all slot in [`PHASE_SLOTS`].
pub const OTHER_SLOT: usize = PHASE_SLOTS.len() - 1;

/// The attribution slot for a span name (`"other"` when unrecognised).
#[must_use]
pub fn phase_slot(name: &str) -> usize {
    PHASE_SLOTS
        .iter()
        .position(|&p| p == name)
        .unwrap_or(OTHER_SLOT)
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static TRACKING: AtomicBool = AtomicBool::new(false);
static CURRENT_PHASE: AtomicUsize = AtomicUsize::new(OTHER_SLOT);

static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_I64: AtomicI64 = AtomicI64::new(0);
static PHASE_BYTES: [AtomicU64; PHASE_SLOTS.len()] = [ZERO_U64; PHASE_SLOTS.len()];
static PHASE_ALLOCS: [AtomicU64; PHASE_SLOTS.len()] = [ZERO_U64; PHASE_SLOTS.len()];
static PHASE_PEAK: [AtomicI64; PHASE_SLOTS.len()] = [ZERO_I64; PHASE_SLOTS.len()];

/// A counting wrapper around a [`GlobalAlloc`], normally [`System`].
pub struct CountingAlloc<A = System> {
    inner: A,
}

impl CountingAlloc<System> {
    /// The standard instance to install:
    /// `#[global_allocator] static A: CountingAlloc = CountingAlloc::system();`
    #[must_use]
    pub const fn system() -> Self {
        Self { inner: System }
    }
}

// SAFETY: all allocation calls are forwarded verbatim to the inner
// allocator; the hooks only touch atomics and never allocate.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc(layout);
        note_alloc(p, layout.size());
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc_zeroed(layout);
        note_alloc(p, layout.size());
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout);
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.inner.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(p, new_size);
        }
        p
    }
}

/// Allocation events a thread batches before publishing to the shared
/// counters.
pub const FLUSH_EVENTS: u32 = 64;

/// Absolute live-byte drift a thread batches before publishing.
pub const FLUSH_BYTES: u64 = 256 << 10;

/// One thread's unpublished counting residue. `epoch` ties the batch to
/// a tracking window so a new window discards stale residue; `phase` is
/// the slot the whole batch is attributed to (the batch is published
/// early when the phase changes, so at most one slot is pending).
#[derive(Clone, Copy)]
struct Pending {
    epoch: u64,
    phase: usize,
    bytes: u64,
    allocs: u64,
    frees: u64,
    live: i64,
    events: u32,
}

const NO_PENDING: Pending = Pending {
    epoch: 0,
    phase: OTHER_SLOT,
    bytes: 0,
    allocs: 0,
    frees: 0,
    live: 0,
    events: 0,
};

thread_local! {
    // const init + no Drop: accessing this from inside the allocator
    // neither allocates nor registers a destructor
    static PENDING: Cell<Pending> = const { Cell::new(NO_PENDING) };
}

/// Tracking-window epoch; bumped by [`start_tracking`]. Starts at 1 so
/// the `NO_PENDING` epoch of 0 never matches a live window.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Publish a batch into the shared counters and reset it.
fn publish(p: &mut Pending) {
    if p.events == 0 {
        return;
    }
    BYTES_ALLOCATED.fetch_add(p.bytes, Relaxed);
    ALLOCS.fetch_add(p.allocs, Relaxed);
    FREES.fetch_add(p.frees, Relaxed);
    let live_now = LIVE.fetch_add(p.live, Relaxed) + p.live;
    PEAK_LIVE.fetch_max(live_now, Relaxed);
    let slot = p.phase.min(OTHER_SLOT);
    PHASE_BYTES[slot].fetch_add(p.bytes, Relaxed);
    PHASE_ALLOCS[slot].fetch_add(p.allocs, Relaxed);
    PHASE_PEAK[slot].fetch_max(live_now, Relaxed);
    p.bytes = 0;
    p.allocs = 0;
    p.frees = 0;
    p.live = 0;
    p.events = 0;
}

/// Record one event into the calling thread's batch, publishing when a
/// threshold trips or the active phase moved since the batch began.
#[inline]
fn note(bytes: u64, allocs: u64, frees: u64, live_delta: i64) {
    let epoch = EPOCH.load(Relaxed);
    let batched = PENDING.try_with(|cell| {
        let mut p = cell.get();
        if p.epoch != epoch {
            p = Pending {
                epoch,
                ..NO_PENDING
            };
        }
        let slot = CURRENT_PHASE.load(Relaxed);
        if p.events > 0 && p.phase != slot {
            publish(&mut p);
        }
        p.phase = slot;
        p.bytes += bytes;
        p.allocs += allocs;
        p.frees += frees;
        p.live += live_delta;
        p.events += 1;
        if p.events >= FLUSH_EVENTS || p.live.unsigned_abs() >= FLUSH_BYTES {
            publish(&mut p);
        }
        cell.set(p);
    });
    if batched.is_err() {
        // thread teardown: the TLS slot is gone, publish directly
        let mut p = Pending {
            epoch,
            phase: CURRENT_PHASE.load(Relaxed),
            bytes,
            allocs,
            frees,
            live: live_delta,
            events: 1,
        };
        publish(&mut p);
    }
}

/// Publish the calling thread's batch if it belongs to the current
/// window.
fn publish_local(epoch: u64) {
    let _ = PENDING.try_with(|cell| {
        let mut p = cell.get();
        if p.epoch == epoch {
            publish(&mut p);
            cell.set(p);
        }
    });
}

#[inline]
fn note_alloc(p: *mut u8, size: usize) {
    if !INSTALLED.load(Relaxed) {
        INSTALLED.store(true, Relaxed);
    }
    if p.is_null() || !TRACKING.load(Relaxed) {
        return;
    }
    note(size as u64, 1, 0, size as i64);
}

#[inline]
fn note_free(size: usize) {
    if !TRACKING.load(Relaxed) {
        return;
    }
    note(0, 0, 1, -(size as i64));
}

/// Whether a [`CountingAlloc`] is the process's global allocator (the
/// wrapper flags itself on its first allocation, which precedes any
/// caller of this function).
#[must_use]
pub fn installed() -> bool {
    INSTALLED.load(Relaxed)
}

/// Whether allocation tracking is currently on.
#[must_use]
pub fn tracking() -> bool {
    TRACKING.load(Relaxed)
}

/// Reset every counter and switch tracking on. One run at a time: the
/// counters are process-global.
pub fn start_tracking() {
    TRACKING.store(false, Relaxed);
    // a new epoch orphans every thread's unpublished batch from the
    // previous window instead of letting it leak into this one
    EPOCH.fetch_add(1, Relaxed);
    BYTES_ALLOCATED.store(0, Relaxed);
    ALLOCS.store(0, Relaxed);
    FREES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK_LIVE.store(0, Relaxed);
    for slot in 0..PHASE_SLOTS.len() {
        PHASE_BYTES[slot].store(0, Relaxed);
        PHASE_ALLOCS[slot].store(0, Relaxed);
        PHASE_PEAK[slot].store(0, Relaxed);
    }
    CURRENT_PHASE.store(OTHER_SLOT, Relaxed);
    TRACKING.store(true, Relaxed);
}

/// Switch tracking off and return the final counters. Publishes the
/// calling thread's batch first; other threads' unpublished residue is
/// lost (bounded per thread by the flush thresholds).
pub fn stop_tracking() -> MemStats {
    publish_local(EPOCH.load(Relaxed));
    TRACKING.store(false, Relaxed);
    snapshot()
}

/// Publish the calling thread's batch into the shared counters. A
/// worker thread calls this as its last act: its batch lives in a
/// thread-local with no destructor, so whatever it still holds when the
/// thread exits — frees of memory another thread allocated, say — would
/// otherwise never reach [`live_bytes`] or the peak. A no-op while
/// tracking is off.
pub fn flush_thread() {
    if TRACKING.load(Relaxed) {
        publish_local(EPOCH.load(Relaxed));
    }
}

/// Point the attribution at a phase slot (see [`phase_slot`]). Called
/// by the collector on every span push/pop; the innermost recognised
/// span wins.
pub fn set_phase(slot: usize) {
    CURRENT_PHASE.store(slot.min(OTHER_SLOT), Relaxed);
}

/// Live (allocated minus freed) bytes since tracking started, clamped
/// to zero. 0 when tracking is off or no allocator is installed.
#[must_use]
pub fn live_bytes() -> u64 {
    if !TRACKING.load(Relaxed) {
        return 0;
    }
    LIVE.load(Relaxed).max(0) as u64
}

/// Counters of one tracked window, global and per phase slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Total bytes passed to `alloc`/`alloc_zeroed`/`realloc`.
    pub bytes_allocated: u64,
    /// Number of allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
    /// Live bytes at snapshot time (clamped to zero).
    pub live_bytes: u64,
    /// Peak of live bytes over the tracked window.
    pub peak_live_bytes: u64,
    /// Per-phase attribution, in [`PHASE_SLOTS`] order; slots that saw
    /// no allocation are included with zeros.
    pub phases: Vec<PhaseMemStat>,
}

/// Per-phase attribution counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMemStat {
    /// Phase slot name (see [`PHASE_SLOTS`]).
    pub name: &'static str,
    /// Bytes allocated while the phase was active.
    pub alloc_bytes: u64,
    /// Allocations while the phase was active.
    pub allocs: u64,
    /// Peak of *global* live bytes observed while the phase was active.
    pub peak_live_bytes: u64,
}

/// Snapshot the current counters without stopping tracking. The
/// calling thread's batch is published first, so a thread reading its
/// own allocations always sees them.
#[must_use]
pub fn snapshot() -> MemStats {
    publish_local(EPOCH.load(Relaxed));
    let phases = PHASE_SLOTS
        .iter()
        .enumerate()
        .map(|(slot, &name)| PhaseMemStat {
            name,
            alloc_bytes: PHASE_BYTES[slot].load(Relaxed),
            allocs: PHASE_ALLOCS[slot].load(Relaxed),
            peak_live_bytes: PHASE_PEAK[slot].load(Relaxed).max(0) as u64,
        })
        .collect();
    MemStats {
        bytes_allocated: BYTES_ALLOCATED.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        frees: FREES.load(Relaxed),
        live_bytes: LIVE.load(Relaxed).max(0) as u64,
        peak_live_bytes: PEAK_LIVE.load(Relaxed).max(0) as u64,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_slots_resolve_and_unknowns_fall_through() {
        assert_eq!(phase_slot("prematch"), 1);
        assert_eq!(phase_slot("remainder"), 4);
        assert_eq!(phase_slot("iteration"), OTHER_SLOT);
        assert_eq!(phase_slot(""), OTHER_SLOT);
        assert_eq!(PHASE_SLOTS[OTHER_SLOT], "other");
    }

    // Counting behaviour itself is exercised in the integration test
    // `tests/alloc.rs`, which installs the allocator for its binary;
    // unit tests here run under the default allocator.
}
