//! String and numeric similarity measures for record linkage.
//!
//! This crate provides the attribute-level similarity substrate used by the
//! temporal census linkage pipeline: q-gram (Dice) similarity, edit
//! distances (Levenshtein, Damerau-Levenshtein), Jaro / Jaro-Winkler,
//! phonetic encodings (Soundex), value normalisation, and numeric
//! similarities for ages and years.
//!
//! All similarity functions return a score in `[0.0, 1.0]` where `1.0`
//! means identical. They are pure functions over `&str` / numbers and never
//! allocate more than the scratch space required by the metric itself.
//!
//! # Example
//!
//! ```
//! use textsim::{qgram_similarity, jaro_winkler, levenshtein_similarity};
//!
//! assert_eq!(qgram_similarity("ashworth", "ashworth", 2), 1.0);
//! assert!(qgram_similarity("ashworth", "ashwort", 2) > 0.8);
//! assert!(jaro_winkler("elizabeth", "elisabeth") > 0.9);
//! assert!(levenshtein_similarity("smith", "smyth") > 0.7);
//! ```

#![warn(missing_docs)]

mod arena;
mod compiled;
mod jaro;
mod levenshtein;
mod normalize;
mod numeric;
mod nysiis;
mod phonetic;
mod qgram;
mod smith_waterman;
mod tokens;

pub use arena::{MultisetArena, RowScratch};
pub use compiled::CompiledValue;
pub use jaro::{jaro, jaro_winkler, jaro_winkler_with_prefix};
pub use levenshtein::{
    damerau_levenshtein, damerau_levenshtein_similarity, levenshtein, levenshtein_similarity,
};
pub use normalize::{fold_diacritic, normalize_name, normalize_value, strip_diacritics};
pub use numeric::{abs_diff_similarity, age_difference_similarity, year_gap_expected_age};
pub use nysiis::nysiis;
pub use phonetic::{soundex, soundex_code};
pub use qgram::{qgram_multiset, qgram_similarity, QGramIndexKey};
pub use smith_waterman::{smith_waterman_similarity, smith_waterman_with, SwScores};
pub use tokens::{monge_elkan, token_jaccard};

/// Exact (case-insensitive, whitespace-trimmed) match similarity: `1.0` when
/// the normalised values are equal and non-empty, else `0.0`.
///
/// Missing values (empty after trimming) never match anything, mirroring the
/// paper's handling of missing attribute values.
#[must_use]
pub fn exact_similarity(a: &str, b: &str) -> f64 {
    let a = a.trim();
    let b = b.trim();
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a.eq_ignore_ascii_case(b) {
        1.0
    } else {
        0.0
    }
}

/// The set of string similarity measures selectable per attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StringMeasure {
    /// Padded q-gram Dice similarity with the given gram size.
    QGram(usize),
    /// Normalised Levenshtein similarity.
    Levenshtein,
    /// Normalised Damerau-Levenshtein similarity.
    DamerauLevenshtein,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity (prefix weight 0.1, max prefix 4).
    JaroWinkler,
    /// Smith-Waterman local-alignment similarity — rewards the best
    /// aligned region, suiting values embedded in variable context.
    SmithWaterman,
    /// Jaccard similarity over the token sets — order-insensitive, good
    /// for multi-word addresses.
    TokenJaccard,
    /// Symmetric Monge-Elkan with a Jaro-Winkler inner measure — aligns
    /// tokens, tolerating reordering, omission and per-token typos.
    MongeElkan,
    /// Case-insensitive exact match.
    Exact,
}

impl StringMeasure {
    /// Evaluate this measure on a pair of strings.
    #[must_use]
    pub fn similarity(self, a: &str, b: &str) -> f64 {
        match self {
            StringMeasure::QGram(q) => qgram_similarity(a, b, q),
            StringMeasure::Levenshtein => levenshtein_similarity(a, b),
            StringMeasure::DamerauLevenshtein => damerau_levenshtein_similarity(a, b),
            StringMeasure::Jaro => jaro(a, b),
            StringMeasure::JaroWinkler => jaro_winkler(a, b),
            StringMeasure::SmithWaterman => smith_waterman_similarity(a, b),
            StringMeasure::TokenJaccard => token_jaccard(a, b),
            StringMeasure::MongeElkan => monge_elkan(a, b),
            StringMeasure::Exact => exact_similarity(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_ignoring_case() {
        assert_eq!(exact_similarity("M", "m"), 1.0);
        assert_eq!(exact_similarity("male", "female"), 0.0);
    }

    #[test]
    fn exact_missing_never_matches() {
        assert_eq!(exact_similarity("", ""), 0.0);
        assert_eq!(exact_similarity("  ", "  "), 0.0);
        assert_eq!(exact_similarity("x", ""), 0.0);
    }

    #[test]
    fn measure_dispatch_is_consistent() {
        let a = "ashworth";
        let b = "ashwort";
        assert_eq!(
            StringMeasure::QGram(2).similarity(a, b),
            qgram_similarity(a, b, 2)
        );
        assert_eq!(
            StringMeasure::Levenshtein.similarity(a, b),
            levenshtein_similarity(a, b)
        );
        assert_eq!(StringMeasure::Jaro.similarity(a, b), jaro(a, b));
        assert_eq!(
            StringMeasure::JaroWinkler.similarity(a, b),
            jaro_winkler(a, b)
        );
        assert_eq!(
            StringMeasure::TokenJaccard.similarity("mill lane", "mill lane"),
            1.0
        );
        assert!(StringMeasure::MongeElkan.similarity("cotton weaver", "weaver") > 0.7);
        assert_eq!(StringMeasure::Exact.similarity(a, b), 0.0);
    }
}
