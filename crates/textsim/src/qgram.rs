//! Q-gram (n-gram) string similarity.
//!
//! The paper's `Sim_func` uses "q-gram string matching" for first name,
//! surname, address and occupation. We implement the standard padded q-gram
//! Dice coefficient: each string is padded with `q - 1` sentinel characters
//! on both sides, decomposed into its multiset of q-grams, and the two
//! multisets are compared with the Dice coefficient
//! `2 * |A ∩ B| / (|A| + |B|)` (multiset intersection).

/// Extract the sorted multiset of q-grams of `s` (lower-cased, padded).
///
/// Padding uses `#` at the start and `$` at the end so that prefix/suffix
/// grams are distinguished — `smith` and `mith` then differ in the `#s`
/// gram, which materially improves short-name discrimination.
#[must_use]
pub fn qgram_multiset(s: &str, q: usize) -> Vec<String> {
    let q = q.max(1);
    let chars: Vec<char> = padded_chars(s, q);
    if chars.len() < q {
        return Vec::new();
    }
    let mut grams: Vec<String> = chars.windows(q).map(|w| w.iter().collect()).collect();
    grams.sort_unstable();
    grams
}

fn padded_chars(s: &str, q: usize) -> Vec<char> {
    let inner: Vec<char> = s.trim().chars().flat_map(char::to_lowercase).collect();
    if inner.is_empty() {
        return Vec::new();
    }
    let pad = q - 1;
    let mut out = Vec::with_capacity(inner.len() + 2 * pad);
    out.extend(std::iter::repeat_n('#', pad));
    out.extend(inner);
    out.extend(std::iter::repeat_n('$', pad));
    out
}

/// Padded q-gram Dice similarity in `[0, 1]`.
///
/// Empty (missing) values have similarity `0.0` to anything, including
/// another empty value: a missing attribute must not be evidence of a match.
///
/// The dominant `q = 2` case runs on integer-packed bigrams with no
/// per-gram allocation — it is the hot inner loop of pre-matching.
///
/// # Example
///
/// ```
/// use textsim::qgram_similarity;
/// assert_eq!(qgram_similarity("john", "john", 2), 1.0);
/// assert!(qgram_similarity("john", "joan", 2) > 0.3);
/// assert_eq!(qgram_similarity("", "john", 2), 0.0);
/// ```
#[must_use]
pub fn qgram_similarity(a: &str, b: &str, q: usize) -> f64 {
    if q == 2 {
        return bigram_similarity(a, b);
    }
    let ga = qgram_multiset(a, q);
    let gb = qgram_multiset(b, q);
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let inter = sorted_multiset_intersection(&ga, &gb);
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

/// Sorted multiset of padded bigrams, each packed into a `u64`
/// (`(c1 << 32) | c2` over the Unicode scalar values).
pub(crate) fn bigram_ids(s: &str) -> Vec<u64> {
    let chars = padded_chars(s, 2);
    if chars.len() < 2 {
        return Vec::new();
    }
    let mut ids: Vec<u64> = chars
        .windows(2)
        .map(|w| (u64::from(w[0] as u32) << 32) | u64::from(w[1] as u32))
        .collect();
    ids.sort_unstable();
    ids
}

/// Allocation-light Dice similarity over packed bigrams.
fn bigram_similarity(a: &str, b: &str) -> f64 {
    let ga = bigram_ids(a);
    let gb = bigram_ids(b);
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let inter = sorted_ids_intersection(&ga, &gb);
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

/// Size of the multiset intersection of two sorted packed-bigram lists.
pub(crate) fn sorted_ids_intersection(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Size of the multiset intersection of two sorted gram lists.
pub(crate) fn sorted_multiset_intersection(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_strings_are_one() {
        assert_eq!(qgram_similarity("ashworth", "ashworth", 2), 1.0);
        assert_eq!(qgram_similarity("a", "a", 2), 1.0);
    }

    #[test]
    fn disjoint_strings_are_zero() {
        assert_eq!(qgram_similarity("abc", "xyz", 2), 0.0);
    }

    #[test]
    fn empty_is_zero_even_against_empty() {
        assert_eq!(qgram_similarity("", "", 2), 0.0);
        assert_eq!(qgram_similarity("", "abc", 2), 0.0);
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(qgram_similarity("Smith", "smith", 2), 1.0);
    }

    #[test]
    fn padding_distinguishes_prefixes() {
        // without padding "mith" ⊂ "smith" would score higher
        let with_pad = qgram_similarity("smith", "mith", 2);
        assert!(with_pad < 0.8, "got {with_pad}");
    }

    #[test]
    fn single_char_q1() {
        assert_eq!(qgram_similarity("a", "a", 1), 1.0);
        assert_eq!(qgram_similarity("ab", "ba", 1), 1.0); // q=1 ignores order
        assert!(qgram_similarity("ab", "ba", 2) < 1.0); // q=2 does not
    }

    #[test]
    fn multiset_counts_repeats() {
        // "aaa" vs "aa": grams(#a, aa, aa, a$) vs (#a, aa, a$)
        let s = qgram_similarity("aaa", "aa", 2);
        assert!((s - 2.0 * 3.0 / 7.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn typo_similarity_is_high() {
        assert!(qgram_similarity("elizabeth", "elizabteh", 2) > 0.6);
        assert!(qgram_similarity("ashworth", "ashworht", 2) > 0.6);
    }

    proptest! {
        #[test]
        fn prop_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let q = 2;
            prop_assert!((qgram_similarity(&a, &b, q) - qgram_similarity(&b, &a, q)).abs() < 1e-12);
        }

        #[test]
        fn prop_bounded(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let s = qgram_similarity(&a, &b, 2);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_identity(a in "[a-z]{1,12}") {
            prop_assert_eq!(qgram_similarity(&a, &a, 2), 1.0);
        }

        #[test]
        fn prop_bigram_fast_path_matches_general_path(
            a in "[a-zA-Z0-9 ]{0,14}",
            b in "[a-zA-Z0-9 ]{0,14}",
        ) {
            // the packed-integer q=2 path must agree exactly with the
            // generic multiset implementation
            let fast = qgram_similarity(&a, &b, 2);
            let ga = qgram_multiset(&a, 2);
            let gb = qgram_multiset(&b, 2);
            let general = if ga.is_empty() || gb.is_empty() {
                0.0
            } else {
                2.0 * sorted_multiset_intersection(&ga, &gb) as f64
                    / (ga.len() + gb.len()) as f64
            };
            prop_assert!((fast - general).abs() < 1e-12, "{fast} vs {general}");
        }

        #[test]
        fn prop_gram_count(a in "[a-z]{1,12}", q in 1usize..4) {
            // padded string of length n + 2(q-1) yields n + q - 1 grams
            let n = a.chars().count();
            prop_assert_eq!(qgram_multiset(&a, q).len(), n + q - 1);
        }
    }
}
