//! Fixed-bucket log2 histograms for distribution-level telemetry.
//!
//! Counters say *how many*; histograms say *how the values spread* —
//! pair `agg_sim` scores, per-phase span latencies, subgraph sizes and
//! the wall times of parallel scoring tasks. A [`Histogram`] is a fixed array of
//! [`HIST_BUCKETS`] power-of-two buckets over `u64` samples: bucket 0
//! holds the value 0 and bucket `k` holds `[2^(k-1), 2^k)`, so
//! recording is two instructions (`leading_zeros` + increment), merging
//! is a bucket-wise add, and two histograms compare with a simple L1
//! distance over their normalised bucket distributions.
//!
//! Similarity scores live in `[0, 1]`; [`score_bp`] scales them to
//! integer basis points (`×10⁴`) before recording so they share the
//! log2 bucket machinery.

use serde::{Deserialize, Serialize};

/// Number of log2 buckets: bucket 0 for the value 0, buckets 1..=64 for
/// `[2^(k-1), 2^k)`, covering the whole `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// Scale a `[0, 1]` similarity score to integer basis points (`×10⁴`)
/// for histogram recording. Out-of-range inputs are clamped.
#[must_use]
pub fn score_bp(s: f64) -> u64 {
    (s.clamp(0.0, 1.0) * 10_000.0).round() as u64
}

/// The live-sampled histogram slots of a [`crate::Collector`], mirroring
/// [`crate::Counter`]'s fixed-slot design: recording into one from a
/// scoring loop needs no string lookup. Phase-latency and task-time
/// histograms are *derived* from the recorded spans and timeline events
/// when the trace is assembled, so only value distributions the spans
/// cannot reconstruct are sampled live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveHist {
    /// `agg_sim` (Eq. 3) of every matched candidate pair, in basis
    /// points (`score × 10⁴`).
    PairScore,
    /// Vertex count of every non-empty matched subgraph (the inputs of
    /// Algorithm 2).
    SubgraphSize,
    /// Length (in snapshots) of every preserve chain in the evolution
    /// graph — how many consecutive censuses a group persists through.
    ChainLength,
}

impl LiveHist {
    /// Every live histogram slot, in report order.
    pub const ALL: [LiveHist; 3] = [
        LiveHist::PairScore,
        LiveHist::SubgraphSize,
        LiveHist::ChainLength,
    ];

    /// Stable snake_case name used in the JSON trace.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LiveHist::PairScore => "pair_agg_sim_bp",
            LiveHist::SubgraphSize => "subgraph_size",
            LiveHist::ChainLength => "preserve_chain_len",
        }
    }

    /// Unit of the recorded samples.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            LiveHist::PairScore => "bp",
            LiveHist::SubgraphSize => "vertices",
            LiveHist::ChainLength => "snapshots",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A fixed-bucket log2 histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Bucket counts: `buckets[0]` holds the value 0, `buckets[k]`
    /// holds `[2^(k-1), 2^k)`. Always [`HIST_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The log2 bucket a value falls into.
#[must_use]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (used for percentile estimates).
#[must_use]
fn bucket_upper(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Record `n` identical samples of value `v` in one update — for
    /// callers that already hold (value, multiplicity) counts, e.g. the
    /// preserve-chain length table.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.buckets[bucket_of(v)] += n;
    }

    /// Fold another histogram into this one (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Whether any sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimated percentile (`p` in `[0, 1]`): the upper bound of the
    /// bucket holding the `⌈p·count⌉`-th smallest sample, clamped to the
    /// observed maximum. 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_upper(k).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// L1 distance between the normalised bucket distributions of two
    /// histograms: 0 for identical shapes, 2 for disjoint ones. An empty
    /// histogram is at distance 0 from another empty one and at the
    /// maximum distance 2 from any non-empty one.
    #[must_use]
    pub fn l1_distance(&self, other: &Histogram) -> f64 {
        match (self.count, other.count) {
            (0, 0) => 0.0,
            (0, _) | (_, 0) => 2.0,
            (ca, cb) => self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(&a, &b)| (a as f64 / ca as f64 - b as f64 / cb as f64).abs())
                .sum(),
        }
    }

    /// Structural invariants every histogram must satisfy: the fixed
    /// bucket count, bucket counts summing to the sample count, and
    /// consistent bounds (`min ≤ max`, all zero when empty).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.buckets.len() != HIST_BUCKETS {
            return Err(format!(
                "histogram has {} bucket(s), expected {HIST_BUCKETS}",
                self.buckets.len()
            ));
        }
        let bucket_sum: u64 = self.buckets.iter().sum();
        if bucket_sum != self.count {
            return Err(format!(
                "bucket counts sum to {bucket_sum}, but {} sample(s) were recorded",
                self.count
            ));
        }
        if self.count == 0 {
            if self.min != 0 || self.max != 0 || self.sum != 0 {
                return Err("empty histogram has non-zero bounds or sum".to_owned());
            }
        } else if self.min > self.max {
            return Err(format!(
                "histogram min {} exceeds max {}",
                self.min, self.max
            ));
        }
        Ok(())
    }
}

/// A histogram with the stable name and unit it is reported under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Stable snake_case name (e.g. `"pair_agg_sim_bp"`).
    pub name: String,
    /// Unit of the samples (e.g. `"us"`, `"bp"`, `"vertices"`).
    pub unit: String,
    /// The histogram itself.
    pub hist: Histogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn record_tracks_bounds_and_validates() {
        let mut h = Histogram::new();
        h.validate().unwrap();
        for v in [0, 1, 5, 1000, 7] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1013);
        h.validate().unwrap();
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = Histogram::new();
        a.record(3);
        a.record(100);
        let mut b = Histogram::new();
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 100);
        a.validate().unwrap();
        // merging an empty histogram changes nothing
        let snapshot = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, snapshot);
        // merging into an empty histogram copies the bounds
        let mut empty = Histogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(100_000);
        assert_eq!(h.percentile(0.5), 15); // bucket [8,16) upper bound
        assert_eq!(h.percentile(1.0), 100_000);
        assert!(h.percentile(0.99) <= 15);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn l1_distance_measures_shape_shift() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 2, 4, 8] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.l1_distance(&b), 0.0);
        // identical shape at different sample counts is still distance 0
        b.merge(&a);
        assert!(a.l1_distance(&b) < 1e-12);
        let mut c = Histogram::new();
        for _ in 0..4 {
            c.record(1_000_000);
        }
        assert!((a.l1_distance(&c) - 2.0).abs() < 1e-12);
        assert_eq!(Histogram::new().l1_distance(&Histogram::new()), 0.0);
        assert_eq!(a.l1_distance(&Histogram::new()), 2.0);
    }

    #[test]
    fn validate_rejects_corrupted_histograms() {
        let mut h = Histogram::new();
        h.record(5);
        h.count = 2; // bucket sum no longer matches
        assert!(h.validate().unwrap_err().contains("sum to"));
        let mut h = Histogram::new();
        h.buckets.pop();
        assert!(h.validate().unwrap_err().contains("bucket"));
        let mut h = Histogram::new();
        h.min = 3;
        assert!(h.validate().is_err());
    }

    #[test]
    fn score_bp_scales_and_clamps() {
        assert_eq!(score_bp(0.0), 0);
        assert_eq!(score_bp(0.5), 5000);
        assert_eq!(score_bp(1.0), 10_000);
        assert_eq!(score_bp(-1.0), 0);
        assert_eq!(score_bp(2.0), 10_000);
    }

    #[test]
    fn histogram_round_trips_through_json() {
        let mut h = Histogram::new();
        h.record(42);
        let named = NamedHistogram {
            name: "test".into(),
            unit: "us".into(),
            hist: h,
        };
        let json = serde_json::to_string(&named).unwrap();
        let back: NamedHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, named);
    }
}
