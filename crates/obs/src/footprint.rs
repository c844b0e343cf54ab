//! Deep-size estimation for the pipeline's large structures.
//!
//! The counting allocator ([`crate::alloc`]) answers "how much did this
//! *phase* allocate"; this module answers "how big is this *structure*
//! right now". [`MemoryFootprint`] is implemented by every structure
//! the pipeline materialises at super-linear scale — the pair-score
//! cache, the profile cache (the run's interned value table), scoring
//! value arenas, record position indexes, enriched household graphs, subgraph
//! scratch, the decision log and the evolution graph — and reports an
//! estimated deep byte count plus an element count.
//!
//! Estimates follow one rule: *capacity, not length* — a `Vec` owns
//! `capacity() * size_of::<T>()` bytes whether or not the tail is in
//! use — plus the shallow size of the owner and any heap payloads the
//! elements own (strings count `capacity()` bytes). Map overhead is
//! approximated as 1.5× the entry payload, mirroring the std hashmap's
//! control-byte + load-factor overhead. The numbers are estimates for
//! budgeting and regression gating, not exact RSS.
//!
//! Snapshots taken at phase boundaries become [`FootprintSnapshot`]
//! rows in the trace, which `trace-diff` gates with `footprint:`
//! thresholds.

use serde::{Deserialize, Serialize};

/// An estimated deep size: bytes owned and logical element count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Estimated owned bytes, including heap payloads.
    pub bytes: u64,
    /// Logical element count (entries, cells, nodes — per structure).
    pub elements: u64,
}

impl Footprint {
    /// An empty footprint.
    pub const ZERO: Footprint = Footprint {
        bytes: 0,
        elements: 0,
    };

    /// A footprint from explicit counts.
    #[must_use]
    pub const fn new(bytes: u64, elements: u64) -> Self {
        Self { bytes, elements }
    }

    /// Component-wise sum (for structures made of parts).
    #[must_use]
    pub const fn plus(self, other: Footprint) -> Footprint {
        Footprint {
            bytes: self.bytes + other.bytes,
            elements: self.elements + other.elements,
        }
    }
}

/// Estimated deep size of a structure. Implementations must not
/// allocate and should cost O(elements) at worst (O(1) where capacity
/// arithmetic suffices), so snapshots are cheap enough for phase
/// boundaries.
pub trait MemoryFootprint {
    /// The structure's current estimated footprint.
    fn footprint(&self) -> Footprint;
}

/// Bytes owned by a `Vec`'s buffer (capacity, not length).
#[must_use]
pub fn vec_bytes<T>(v: &[T]) -> u64 {
    // callers pass `&vec[..]`; length is the lower bound of capacity,
    // close enough after `shrink_to_fit`-free growth doubling
    std::mem::size_of_val(v) as u64
}

/// Bytes owned by a `Vec`, counting its full capacity.
#[must_use]
pub fn vec_capacity_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// Approximate bytes owned by a hash map with `len` entries of
/// `entry_bytes` each: 1.5× payload for load factor and control bytes.
#[must_use]
pub fn map_bytes(len: usize, entry_bytes: usize) -> u64 {
    (len as u64 * entry_bytes as u64) * 3 / 2
}

/// One footprint snapshot, taken at a phase boundary and stored in the
/// trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FootprintSnapshot {
    /// Structure name (e.g. `"pair_score_cache"`).
    pub structure: String,
    /// Phase active when the snapshot was taken (`""` outside spans).
    pub phase: String,
    /// δ-iteration of that phase, when inside one.
    pub iteration: Option<usize>,
    /// Estimated owned bytes.
    pub bytes: u64,
    /// Logical element count.
    pub elements: u64,
}

impl MemoryFootprint for crate::DecisionLog {
    fn footprint(&self) -> Footprint {
        // entries are enum records dominated by their inline payload;
        // GroupDecision's vectors add a per-record tail we approximate
        // from the stored record-link counts
        let shallow = (self.len() * std::mem::size_of::<crate::DecisionRecord>()) as u64;
        let mut heap = 0u64;
        for e in self.entries() {
            if let crate::DecisionRecord::Group(g) = e {
                heap += vec_bytes(&g.records) + vec_bytes(&g.losers);
            }
        }
        Footprint::new(shallow + heap, self.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{DecisionConfig, DecisionRecord, RemainderDecision};
    use crate::DecisionLog;

    #[test]
    fn footprints_compose() {
        let a = Footprint::new(100, 2);
        let b = Footprint::new(28, 5);
        let sum = a.plus(b);
        assert_eq!(sum.bytes, 128);
        assert_eq!(sum.elements, 7);
        assert_eq!(Footprint::ZERO.plus(a), a);
    }

    #[test]
    fn helpers_estimate_buffer_sizes() {
        let v = vec![0u64; 10];
        assert_eq!(vec_bytes(&v), 80);
        assert!(vec_capacity_bytes(&v) >= 80);
        assert_eq!(map_bytes(10, 16), 240);
        assert_eq!(map_bytes(0, 16), 0);
    }

    #[test]
    fn decision_log_footprint_grows_with_entries() {
        let mut log = DecisionLog::new(DecisionConfig::default());
        let empty = log.footprint();
        assert_eq!(empty.elements, 0);
        log.push(DecisionRecord::Remainder(RemainderDecision {
            old_record: 1,
            new_record: 2,
            old_group: 3,
            new_group: 4,
            agg_sim: 0.9,
        }));
        let one = log.footprint();
        assert_eq!(one.elements, 1);
        assert!(one.bytes > empty.bytes);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = FootprintSnapshot {
            structure: "pair_score_cache".into(),
            phase: "prematch".into(),
            iteration: Some(0),
            bytes: 4096,
            elements: 170,
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: FootprintSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
