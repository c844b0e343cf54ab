//! String and numeric similarity measures for record linkage.
//!
//! This crate provides the attribute-level similarity substrate used by the
//! temporal census linkage pipeline: q-gram (Dice) similarity, exact
//! match, the Soundex phonetic code used for blocking, value
//! normalisation, and the similarity of age differences.
//!
//! All similarity functions return a score in `[0.0, 1.0]` where `1.0`
//! means identical. They are pure functions over `&str` / numbers and never
//! allocate more than the scratch space required by the metric itself.
//!
//! # Example
//!
//! ```
//! use textsim::{exact_similarity, qgram_similarity, soundex};
//!
//! assert_eq!(qgram_similarity("ashworth", "ashworth", 2), 1.0);
//! assert!(qgram_similarity("ashworth", "ashwort", 2) > 0.8);
//! assert_eq!(exact_similarity("M", "m"), 1.0);
//! assert_eq!(soundex("Ashworth"), soundex("Ashwort"));
//! ```

#![warn(missing_docs)]

mod arena;
mod compiled;
mod normalize;
mod numeric;
mod phonetic;
mod qgram;

pub use arena::{MultisetArena, RowScratch};
pub use compiled::CompiledValue;
pub use normalize::{fold_diacritic, normalize_name, normalize_value};
pub use numeric::age_difference_similarity;
pub use phonetic::{soundex, soundex_code};
pub use qgram::{qgram_multiset, qgram_similarity};

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
    /// Case-insensitive exact match.
    Exact,
}

impl StringMeasure {
    /// Evaluate this measure on a pair of strings.
    #[must_use]
    pub fn similarity(self, a: &str, b: &str) -> f64 {
        match self {
            StringMeasure::QGram(q) => qgram_similarity(a, b, q),
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
        assert_eq!(StringMeasure::Exact.similarity(a, b), 0.0);
    }
}
