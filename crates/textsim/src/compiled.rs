//! Compiled similarity values: tokenise once, score many times.
//!
//! [`StringMeasure::similarity`] re-derives the measure-specific
//! representation of *both* strings on every call — for the dominant
//! q-gram case that means lower-casing, padding, windowing and sorting
//! per comparison, inside an O(n·m) candidate loop. Compiling a value
//! with [`StringMeasure::compile`] performs that work once; scoring two
//! [`CompiledValue`]s is then a single merge over the precomputed sorted
//! multisets (or a string equality for `Exact`).
//!
//! The contract, locked in by the property tests below and the
//! differential suite in the linkage core, is *bit-for-bit* agreement:
//! for values compiled under the same measure,
//! `a.similarity(&b) == measure.similarity(raw_a, raw_b)` exactly —
//! the merge runs the same arithmetic in the same order as the uncompiled
//! path, so no epsilon is needed.

use crate::qgram::{
    bigram_ids, qgram_multiset, sorted_ids_intersection, sorted_multiset_intersection,
};
use crate::StringMeasure;

/// Measure-specific precomputed representation of one attribute value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Repr {
    /// Sorted multiset of packed bigrams — the hot `QGram(2)` case.
    Bigrams(Vec<u64>),
    /// Sorted multiset of string q-grams (`QGram(q)` for `q ≠ 2`).
    Grams(Vec<String>),
    /// Trimmed, ASCII-lowercased key for `Exact`.
    ExactKey(String),
}

/// A value compiled for repeated scoring under one [`StringMeasure`].
///
/// The raw value is retained so mismatched-measure comparisons can fall
/// back to [`StringMeasure::similarity`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledValue {
    raw: String,
    measure: StringMeasure,
    repr: Repr,
}

impl StringMeasure {
    /// Compile `value` for repeated scoring under this measure.
    ///
    /// [`CompiledValue::similarity`] on two values compiled with the same
    /// measure returns exactly what [`StringMeasure::similarity`] returns
    /// on the raw strings.
    #[must_use]
    pub fn compile(self, value: &str) -> CompiledValue {
        let repr = match self {
            StringMeasure::QGram(2) => Repr::Bigrams(bigram_ids(value)),
            StringMeasure::QGram(q) => Repr::Grams(qgram_multiset(value, q)),
            StringMeasure::Exact => Repr::ExactKey(value.trim().to_ascii_lowercase()),
        };
        CompiledValue {
            raw: value.to_owned(),
            measure: self,
            repr,
        }
    }
}

impl CompiledValue {
    /// The raw (uncompiled) value.
    #[must_use]
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// The precomputed representation, for arena packing.
    pub(crate) fn repr(&self) -> &Repr {
        &self.repr
    }

    /// Heap bytes owned by this value beyond `size_of::<CompiledValue>()`:
    /// the raw string plus the measure-specific gram buffers. Used by
    /// memory-footprint estimates, so it counts *capacity*, not length.
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        let repr = match &self.repr {
            Repr::Bigrams(v) => (v.capacity() * std::mem::size_of::<u64>()) as u64,
            Repr::Grams(v) => {
                (v.capacity() * std::mem::size_of::<String>()) as u64
                    + v.iter().map(|g| g.capacity() as u64).sum::<u64>()
            }
            Repr::ExactKey(k) => k.capacity() as u64,
        };
        self.raw.capacity() as u64 + repr
    }

    /// The measure this value was compiled for.
    #[must_use]
    pub fn measure(&self) -> StringMeasure {
        self.measure
    }

    /// Whether the value is missing (empty after trimming): such values
    /// score `0.0` against everything under every measure.
    #[must_use]
    pub fn is_missing(&self) -> bool {
        self.raw.trim().is_empty()
    }

    /// Similarity to another compiled value, bit-identical to
    /// `self.measure().similarity(self.raw(), other.raw())`.
    ///
    /// Values compiled under *different* measures (a caller error, but a
    /// benign one) fall back to scoring the raw strings with `self`'s
    /// measure.
    #[must_use]
    pub fn similarity(&self, other: &CompiledValue) -> f64 {
        if self.measure != other.measure {
            return self.measure.similarity(&self.raw, &other.raw);
        }
        match (&self.repr, &other.repr) {
            (Repr::Bigrams(a), Repr::Bigrams(b)) => {
                if a.is_empty() || b.is_empty() {
                    0.0
                } else {
                    2.0 * sorted_ids_intersection(a, b) as f64 / (a.len() + b.len()) as f64
                }
            }
            (Repr::Grams(a), Repr::Grams(b)) => {
                if a.is_empty() || b.is_empty() {
                    0.0
                } else {
                    2.0 * sorted_multiset_intersection(a, b) as f64 / (a.len() + b.len()) as f64
                }
            }
            (Repr::ExactKey(a), Repr::ExactKey(b)) => {
                if a.is_empty() || b.is_empty() || a != b {
                    0.0
                } else {
                    1.0
                }
            }
            _ => self.measure.similarity(&self.raw, &other.raw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qgram_similarity;
    use proptest::prelude::*;

    const ALL_MEASURES: [StringMeasure; 3] = [
        StringMeasure::QGram(2),
        StringMeasure::QGram(3),
        StringMeasure::Exact,
    ];

    #[test]
    fn compiled_exact_matches_naive() {
        let m = StringMeasure::Exact;
        for (a, b) in [
            ("M", "m"),
            ("male", "female"),
            ("", ""),
            ("  ", "  "),
            ("x", ""),
            (" Male ", "male"),
        ] {
            let (ca, cb) = (m.compile(a), m.compile(b));
            assert_eq!(ca.similarity(&cb), m.similarity(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn empty_and_whitespace_values_score_zero() {
        for m in ALL_MEASURES {
            for empty in ["", "   ", "\t\n"] {
                let ce = m.compile(empty);
                assert!(ce.is_missing());
                assert_eq!(ce.similarity(&m.compile("ashworth")), 0.0, "{m:?}");
                assert_eq!(ce.similarity(&m.compile(empty)), 0.0, "{m:?}");
            }
        }
        let ce = StringMeasure::Exact.compile(" ");
        assert_eq!(ce.similarity(&StringMeasure::Exact.compile(" ")), 0.0);
    }

    #[test]
    fn mismatched_measures_fall_back_to_raw_scoring() {
        let a = StringMeasure::QGram(2).compile("ashworth");
        let b = StringMeasure::Exact.compile("ashworth");
        // scored with `a`'s measure on the raw strings
        assert_eq!(
            a.similarity(&b),
            StringMeasure::QGram(2).similarity("ashworth", "ashworth")
        );
    }

    #[test]
    fn accessors_expose_inputs() {
        let c = StringMeasure::QGram(2).compile("Mill Lane");
        assert_eq!(c.raw(), "Mill Lane");
        assert_eq!(c.measure(), StringMeasure::QGram(2));
        assert!(!c.is_missing());
    }

    proptest! {
        #[test]
        fn prop_compiled_qgram_equals_naive(a in ".{0,16}", b in ".{0,16}", q in 1usize..5) {
            let m = StringMeasure::QGram(q);
            let (ca, cb) = (m.compile(&a), m.compile(&b));
            // bit-for-bit: same arithmetic, same order — no epsilon
            prop_assert_eq!(ca.similarity(&cb), qgram_similarity(&a, &b, q));
        }

        #[test]
        fn prop_compiled_matches_every_measure(a in ".{0,12}", b in ".{0,12}") {
            for m in ALL_MEASURES {
                let (ca, cb) = (m.compile(&a), m.compile(&b));
                prop_assert_eq!(ca.similarity(&cb), m.similarity(&a, &b));
            }
        }

        #[test]
        fn prop_compiled_scores_bounded(a in ".{0,16}", b in ".{0,16}") {
            for m in ALL_MEASURES {
                let s = m.compile(&a).similarity(&m.compile(&b));
                prop_assert!((0.0..=1.0).contains(&s), "{:?} gave {}", m, s);
            }
        }

        #[test]
        fn prop_compiled_qgram_symmetric(a in ".{0,16}", b in ".{0,16}") {
            let m = StringMeasure::QGram(2);
            let (ca, cb) = (m.compile(&a), m.compile(&b));
            prop_assert_eq!(ca.similarity(&cb), cb.similarity(&ca));
        }

        #[test]
        fn prop_compiled_identity_on_nonempty(a in "[a-z]{1,16}") {
            let m = StringMeasure::QGram(2);
            let c = m.compile(&a);
            prop_assert_eq!(c.similarity(&c.clone()), 1.0);
        }
    }
}
