//! End-to-end series generation: world → decades → noisy snapshots.

use crate::config::SimConfig;
use crate::events::EventLog;
use crate::noise::corrupt_dataset;
use crate::snapshot::take_snapshot;
use crate::truth::{ground_truth, GroundTruth};
use crate::world::World;
use census_model::CensusDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generated series of census snapshots with on-demand ground truth.
#[derive(Debug, Clone)]
pub struct CensusSeries {
    /// The noisy snapshots, oldest first.
    pub snapshots: Vec<CensusDataset>,
    /// The configuration that produced them.
    pub config: SimConfig,
    /// Every demographic event the simulation performed — ground-truth
    /// provenance for the differences between snapshots.
    pub events: EventLog,
}

impl CensusSeries {
    /// Ground truth between snapshots `i` and `j` (usually `j = i + 1`).
    /// Returns `None` if either index is out of range.
    #[must_use]
    pub fn truth_between(&self, i: usize, j: usize) -> Option<GroundTruth> {
        Some(ground_truth(self.snapshots.get(i)?, self.snapshots.get(j)?))
    }
}

/// Generate a full census series from a configuration. Deterministic in
/// `config.seed`.
#[must_use]
pub fn generate_series(config: &SimConfig) -> CensusSeries {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut world = World::genesis(config, &mut rng);
    let mut snapshots = Vec::with_capacity(config.snapshots);
    for i in 0..config.snapshots {
        if i > 0 {
            world.advance_decade(config, &mut rng);
        }
        let mut ds = take_snapshot(&world, &mut rng);
        corrupt_dataset(&mut ds, &config.noise, &mut rng);
        snapshots.push(ds);
    }
    CensusSeries {
        snapshots,
        config: config.clone(),
        events: world.events().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_has_requested_snapshots_and_years() {
        let config = SimConfig::small();
        let series = generate_series(&config);
        assert_eq!(series.snapshots.len(), 3);
        let years: Vec<i32> = series.snapshots.iter().map(|d| d.year).collect();
        assert_eq!(years, config.census_years());
    }

    #[test]
    fn series_is_deterministic() {
        let config = SimConfig::small();
        let a = generate_series(&config);
        let b = generate_series(&config);
        for (da, db) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(da.records(), db.records());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = SimConfig::small();
        let a = generate_series(&config);
        config.seed += 1;
        let b = generate_series(&config);
        assert_ne!(a.snapshots[0].records(), b.snapshots[0].records());
    }

    #[test]
    fn population_grows_across_series() {
        let config = SimConfig::small();
        let series = generate_series(&config);
        let first = series.snapshots.first().unwrap().record_count();
        let last = series.snapshots.last().unwrap().record_count();
        assert!(last > first, "population should grow: {first} -> {last}");
    }

    #[test]
    fn successive_pairs_cover_series() {
        let series = generate_series(&SimConfig::small());
        assert_eq!(series.snapshots.len(), 3);
        for (i, pair) in series.snapshots.windows(2).enumerate() {
            assert_eq!(pair[1].year - pair[0].year, 10);
            assert!(!series.truth_between(i, i + 1).unwrap().records.is_empty());
        }
    }

    #[test]
    fn series_carries_the_event_log() {
        let series = generate_series(&SimConfig::small());
        assert!(!series.events.is_empty());
        // events cover the simulated span
        let years: Vec<i32> = series.events.all().iter().map(|e| e.year()).collect();
        assert!(years.iter().any(|&y| y <= 1851));
        assert!(years.iter().any(|&y| y > 1851));
    }

    #[test]
    fn truth_between_out_of_range_is_none() {
        let series = generate_series(&SimConfig::small());
        assert!(series.truth_between(0, 9).is_none());
        assert!(series.truth_between(0, 1).is_some());
    }
}
