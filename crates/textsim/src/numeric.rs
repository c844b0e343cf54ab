//! Numeric similarity of age differences.
//!
//! The paper attaches age differences to household-graph edges and requires
//! them to be "highly similar" for edges to match (§3.3). This helper
//! implements that arithmetic.

/// Similarity of two age differences (edge properties), with the given
/// tolerance in years: `max(0, 1 - |diff_a - diff_b| / tolerance)`, with
/// a tolerance of 0 treated as 1. A difference of zero scores `1.0`;
/// differences at or beyond the tolerance score `0.0`.
///
/// The differences are `i64` so that two `u32` ages subtract exactly; any
/// difference of two `u32` ages converts to `f64` without rounding.
#[must_use]
pub fn age_difference_similarity(diff_a: i64, diff_b: i64, tolerance: u32) -> f64 {
    let tolerance = f64::from(tolerance.max(1));
    (1.0 - (diff_a as f64 - diff_b as f64).abs() / tolerance).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_diff_is_one() {
        assert_eq!(age_difference_similarity(31, 31, 2), 1.0);
    }

    #[test]
    fn beyond_tolerance_is_zero() {
        assert_eq!(age_difference_similarity(5, -5, 2), 0.0);
    }

    #[test]
    fn linear_in_between() {
        assert!((age_difference_similarity(31, 32, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn differences_of_u32_ages_are_exact() {
        let max = i64::from(u32::MAX);
        assert_eq!(age_difference_similarity(max, max, 3), 1.0);
        assert_eq!(age_difference_similarity(-max, max, 3), 0.0);
        assert!((age_difference_similarity(1 << 31, (1 << 31) + 1, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_tolerance_clamped_for_ages() {
        // tolerance 0 is clamped to 1 for the integer wrapper
        assert_eq!(age_difference_similarity(4, 4, 0), 1.0);
        assert_eq!(age_difference_similarity(4, 5, 0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_bounded_and_symmetric(a in -100i64..100, b in -100i64..100, t in 0u32..50) {
            let s = age_difference_similarity(a, b, t);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - age_difference_similarity(b, a, t)).abs() < 1e-12);
        }

        #[test]
        fn prop_monotone_in_gap(a in -50i64..50, d1 in 0i64..20, d2 in 0i64..20, t in 1u32..10) {
            let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(
                age_difference_similarity(a, a + near, t) >= age_difference_similarity(a, a + far, t)
            );
        }
    }
}
