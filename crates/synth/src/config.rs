//! Simulation and noise configuration.

use serde::{Deserialize, Serialize};

/// Demographic and observation parameters of the simulated region.
///
/// The defaults are calibrated so that a [`SimConfig::paper_scale`] run
/// tracks the shape of the paper's Table 1: the population roughly doubles
/// over five decades, mean household size stays near five, and name
/// ambiguity sits around 2.2 records per unique first+surname combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed — runs are fully deterministic given the seed.
    pub seed: u64,
    /// First census year.
    pub start_year: i32,
    /// Years between censuses.
    pub interval: i32,
    /// Number of census snapshots to take (≥ 1).
    pub snapshots: usize,
    /// Households created for the initial population.
    pub initial_households: usize,
    /// Per-decade probability that an eligible unmarried adult marries.
    pub marriage_rate: f64,
    /// Fraction of new couples that stay in the groom's parental household
    /// (creating sub-families whose later departure produces *split*
    /// patterns) instead of founding their own household immediately.
    pub stay_with_parents_rate: f64,
    /// Per-decade probability that a co-resident married sub-family leaves
    /// the parental household, taking spouse and children along (a *split*).
    pub subfamily_departure_rate: f64,
    /// Per-decade probability that an unmarried adult leaves home to lodge
    /// elsewhere or found a one-person household (a *move*).
    pub leave_home_rate: f64,
    /// Per-decade probability that a small elderly household merges into a
    /// relative's household (a *merge*).
    pub merge_rate: f64,
    /// Per-decade probability that an entire household emigrates from the
    /// region (*removeG*).
    pub household_emigration_rate: f64,
    /// Per-decade probability that an unmarried adult emigrates alone.
    pub individual_emigration_rate: f64,
    /// Per-decade population growth from immigration, as a fraction of the
    /// current household count (*addG*).
    pub immigration_rate: f64,
    /// Expected births per fertile couple per decade.
    pub fertility: f64,
    /// Per-decade probability an adult changes occupation.
    pub occupation_churn: f64,
    /// Per-decade probability a household changes address.
    pub address_churn: f64,
    /// Observation noise applied when a census is taken.
    pub noise: NoiseConfig,
}

impl SimConfig {
    /// Paper-scale configuration: six censuses 1851–1901 starting near the
    /// paper's 3,298 households. Generating this takes a few seconds.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            initial_households: 3300,
            ..Self::default()
        }
    }

    /// Medium configuration used by the experiment harness by default:
    /// same dynamics at roughly one-quarter of the paper's scale, fast
    /// enough for the full table suite.
    #[must_use]
    pub fn medium() -> Self {
        Self {
            initial_households: 800,
            ..Self::default()
        }
    }

    /// Small configuration for unit tests and doc examples.
    #[must_use]
    pub fn small() -> Self {
        Self {
            initial_households: 120,
            snapshots: 3,
            ..Self::default()
        }
    }

    /// The census years implied by `start_year`, `interval`, `snapshots`.
    #[must_use]
    pub fn census_years(&self) -> Vec<i32> {
        (0..self.snapshots)
            .map(|i| self.start_year + self.interval * i as i32)
            .collect()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1851,
            start_year: 1851,
            interval: 10,
            snapshots: 6,
            initial_households: 800,
            marriage_rate: 0.55,
            stay_with_parents_rate: 0.55,
            subfamily_departure_rate: 0.7,
            leave_home_rate: 0.04,
            merge_rate: 0.15,
            household_emigration_rate: 0.05,
            individual_emigration_rate: 0.04,
            immigration_rate: 0.085,
            fertility: 1.9,
            occupation_churn: 0.35,
            address_churn: 0.30,
            noise: NoiseConfig::default(),
        }
    }
}

/// Observation noise applied when rendering the true world into a census
/// dataset. All probabilities are per affected field and census.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Probability of a transcription typo in a name field (one random
    /// insert / delete / substitute / adjacent transposition).
    pub name_typo: f64,
    /// Probability that a first name is written as a common nickname or
    /// variant spelling (elizabeth → eliza, william → wm, …).
    pub nickname: f64,
    /// Probability of a typo in the address or occupation field.
    pub text_typo: f64,
    /// Probability the recorded age is off by ±1 year.
    pub age_off_by_one: f64,
    /// Probability the recorded age is off by ±2–3 years.
    pub age_off_by_more: f64,
    /// Per-attribute missing-value probabilities.
    pub missing_first_name: f64,
    /// Missing surname probability.
    pub missing_surname: f64,
    /// Missing sex probability.
    pub missing_sex: f64,
    /// Missing address probability.
    pub missing_address: f64,
    /// Missing occupation probability.
    pub missing_occupation: f64,
}

impl NoiseConfig {
    /// Noise-free observation (useful to isolate algorithmic behaviour).
    #[must_use]
    pub fn clean() -> Self {
        Self {
            name_typo: 0.0,
            nickname: 0.0,
            text_typo: 0.0,
            age_off_by_one: 0.0,
            age_off_by_more: 0.0,
            missing_first_name: 0.0,
            missing_surname: 0.0,
            missing_sex: 0.0,
            missing_address: 0.0,
            missing_occupation: 0.0,
        }
    }

    /// Heavier noise than the default — for stress tests.
    #[must_use]
    pub fn heavy() -> Self {
        Self {
            name_typo: 0.12,
            nickname: 0.08,
            text_typo: 0.18,
            age_off_by_one: 0.20,
            age_off_by_more: 0.08,
            missing_first_name: 0.02,
            missing_surname: 0.02,
            missing_sex: 0.03,
            missing_address: 0.10,
            missing_occupation: 0.20,
        }
    }
}

impl Default for NoiseConfig {
    /// Calibrated to the paper's Table 1 missing-value band.
    fn default() -> Self {
        Self {
            name_typo: 0.05,
            nickname: 0.04,
            text_typo: 0.08,
            age_off_by_one: 0.12,
            age_off_by_more: 0.03,
            missing_first_name: 0.006,
            missing_surname: 0.006,
            missing_sex: 0.012,
            missing_address: 0.05,
            missing_occupation: 0.07,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_years_are_decades() {
        let c = SimConfig::default();
        assert_eq!(c.census_years(), vec![1851, 1861, 1871, 1881, 1891, 1901]);
    }

    #[test]
    fn small_config_has_three_snapshots() {
        let c = SimConfig::small();
        assert_eq!(c.census_years(), vec![1851, 1861, 1871]);
    }

    /// Mean missing-value ratio over the five `Sim_func` attributes a
    /// noise configuration induces (compare with the paper's 3–6.5 %).
    fn expected_missing_ratio(n: &NoiseConfig) -> f64 {
        (n.missing_first_name
            + n.missing_surname
            + n.missing_sex
            + n.missing_address
            + n.missing_occupation)
            / 5.0
    }

    #[test]
    fn default_missing_ratio_in_paper_band() {
        // the injected rate sits slightly below the paper band because
        // blank child occupations add naturally-missing cells on top
        let r = expected_missing_ratio(&NoiseConfig::default());
        assert!((0.02..=0.065).contains(&r), "expected paper band, got {r}");
    }

    #[test]
    fn clean_noise_is_zero() {
        assert_eq!(expected_missing_ratio(&NoiseConfig::clean()), 0.0);
    }

    #[test]
    fn config_serialisation_round_trips() {
        let c = SimConfig::paper_scale();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
