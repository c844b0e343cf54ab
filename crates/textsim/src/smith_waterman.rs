//! Smith-Waterman local-alignment similarity.
//!
//! An edit distance charges for *everything* that differs; Smith-Waterman
//! rewards the best locally aligned region instead, which suits values
//! that embed the informative part in variable context — "widow of john
//! smith" vs "john smith", or addresses with shifting house numbers.

/// Scoring parameters for [`smith_waterman_similarity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwScores {
    /// Reward for a matching character (> 0).
    pub matched: f64,
    /// Penalty for a mismatching character (≤ 0).
    pub mismatch: f64,
    /// Penalty per gap character (≤ 0).
    pub gap: f64,
}

impl Default for SwScores {
    fn default() -> Self {
        Self {
            matched: 1.0,
            mismatch: -0.5,
            gap: -0.5,
        }
    }
}

/// Smith-Waterman similarity in `[0, 1]`: the best local alignment score,
/// normalised by the maximum achievable score of the *shorter* string
/// (`matched × min(|a|, |b|)`). Case-insensitive; empty values never
/// match.
///
/// ```
/// use textsim::smith_waterman_similarity;
/// assert_eq!(smith_waterman_similarity("john smith", "john smith"), 1.0);
/// // the full name embeds perfectly in the longer context
/// assert_eq!(smith_waterman_similarity("widow of john smith", "john smith"), 1.0);
/// assert!(smith_waterman_similarity("4 mill lane", "7 mill lane") > 0.8);
/// assert_eq!(smith_waterman_similarity("", "x"), 0.0);
/// ```
#[must_use]
pub fn smith_waterman_similarity(a: &str, b: &str) -> f64 {
    smith_waterman_with(a, b, SwScores::default())
}

/// [`smith_waterman_similarity`] with explicit scoring parameters.
///
/// # Panics
///
/// Panics if `scores.matched` is not strictly positive.
#[must_use]
pub fn smith_waterman_with(a: &str, b: &str, scores: SwScores) -> f64 {
    assert!(scores.matched > 0.0, "match reward must be positive");
    let a: Vec<char> = a.trim().chars().flat_map(char::to_lowercase).collect();
    let b: Vec<char> = b.trim().chars().flat_map(char::to_lowercase).collect();
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // two-row dynamic program over the local-alignment recurrence
    let w = b.len() + 1;
    let mut prev = vec![0.0f64; w];
    let mut cur = vec![0.0f64; w];
    let mut best = 0.0f64;
    for &ca in &a {
        cur[0] = 0.0;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j]
                + if ca == cb {
                    scores.matched
                } else {
                    scores.mismatch
                };
            let del = prev[j + 1] + scores.gap;
            let ins = cur[j] + scores.gap;
            let v = sub.max(del).max(ins).max(0.0);
            cur[j + 1] = v;
            best = best.max(v);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let denom = scores.matched * a.len().min(b.len()) as f64;
    (best / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_and_embedded() {
        assert_eq!(smith_waterman_similarity("smith", "smith"), 1.0);
        assert_eq!(smith_waterman_similarity("xx smith yy", "smith"), 1.0);
        assert_eq!(smith_waterman_similarity("smith", "xx smith yy"), 1.0);
    }

    #[test]
    fn disjoint_is_zero() {
        assert_eq!(smith_waterman_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn single_typo_scores_high() {
        let s = smith_waterman_similarity("ashworth", "ashwerth");
        assert!(s > 0.7, "got {s}");
    }

    #[test]
    fn local_beats_global_for_context() {
        // Levenshtein punishes the prefix; Smith-Waterman does not
        let local = smith_waterman_similarity("widow of john smith", "john smith");
        // normalised Levenshtein: the 9-char prefix costs 9 deletions of 19
        let global = 1.0 - 9.0 / 19.0;
        assert!(local > global, "{local} vs {global}");
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(smith_waterman_similarity("Smith", "SMITH"), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_scores_panic() {
        let _ = smith_waterman_with(
            "a",
            "b",
            SwScores {
                matched: 0.0,
                mismatch: -1.0,
                gap: -1.0,
            },
        );
    }

    proptest! {
        #[test]
        fn prop_bounded_and_symmetric(a in "[a-z ]{0,14}", b in "[a-z ]{0,14}") {
            let s = smith_waterman_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - smith_waterman_similarity(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn prop_identity(a in "[a-z]{1,14}") {
            prop_assert_eq!(smith_waterman_similarity(&a, &a), 1.0);
        }

        #[test]
        fn prop_substring_is_perfect(a in "[a-z]{2,10}", prefix in "[a-z]{0,5}", suffix in "[a-z]{0,5}") {
            let long = format!("{prefix}{a}{suffix}");
            prop_assert_eq!(smith_waterman_similarity(&long, &a), 1.0);
        }
    }
}
