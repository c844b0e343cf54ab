//! Structure-of-arrays arena of compiled multisets for batch scoring.
//!
//! The row scoring kernel in the linkage core scores candidate pairs by
//! interned value id, one attribute at a time. Scoring through
//! [`CompiledValue`] references would chase one heap pointer per side per
//! item; [`MultisetArena`]
//! instead flattens every value's sorted gram multiset into one contiguous
//! buffer with an offset table, so the merge-Dice inner loop streams
//! linearly through memory. Bigrams are additionally re-packed into the
//! narrowest integer lane the alphabet allows (`u16` for byte-sized
//! chars, `u32` below the BMP boundary), quadrupling the grams per cache
//! line for the dominant ASCII census data.
//!
//! The contract mirrors `CompiledValue`: for any two values in the arena,
//! [`MultisetArena::similarity`] is *bit-for-bit* equal to
//! [`CompiledValue::similarity`] on the originals. The re-packed lanes
//! preserve that because the packing maps are strictly monotone and
//! injective on the gram alphabet — sorted order and multiset
//! intersection counts survive the remap, and the Dice arithmetic runs
//! the same `usize`/`f64` expression in the same order. An arena holds
//! one attribute spec's values, all compiled under that spec's measure,
//! so its lane follows their one representation.
//!
//! [`MultisetArena::similarity_row`] serves callers that score one value
//! against many: in the `u16` lane it keeps the fixed value's gram counts
//! in a [`RowScratch`] and counts each intersection with one probe per
//! distinct gram of the other value — the same integer the merge counts.

use crate::compiled::{CompiledValue, Repr};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel id for a missing (empty-key) value in the exact lane.
const EXACT_EMPTY: u32 = u32::MAX;

/// A contiguous, read-only layout of compiled attribute values, indexed
/// by dense value ids.
///
/// Built from one representative [`CompiledValue`] per unique value and
/// shared read-only by the scoring workers; [`MultisetArena::similarity`]
/// then scores any id pair. The arena borrows nothing: it keeps its own
/// packed copies of the grams or keys.
#[derive(Debug)]
pub struct MultisetArena {
    lane: Lane,
    len: usize,
    /// Process-unique identity, so a [`RowScratch`] never serves a row
    /// loaded from another arena.
    uid: u64,
}

/// Per-worker scratch of [`MultisetArena::similarity_row`]: the gram
/// counts of one loaded `u16`-lane row, indexed by packed bigram.
#[derive(Debug, Default)]
pub struct RowScratch {
    /// `(arena uid, row id)` whose grams `counts` holds.
    loaded: Option<(u64, u32)>,
    /// The loaded row's grams, to clear `counts` on the next load.
    grams: Vec<u16>,
    /// Multiplicity per packed bigram; allocated (2¹⁶ cells) on first use.
    counts: Vec<u32>,
}

impl RowScratch {
    /// Make `counts` hold the multiset of row `row` of arena `uid`.
    fn load(&mut self, uid: u64, row: u32, grams: &[u16]) {
        if self.loaded == Some((uid, row)) {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; 1 << 16];
        }
        for &g in &self.grams {
            self.counts[g as usize] = 0;
        }
        self.grams.clear();
        self.grams.extend_from_slice(grams);
        for &g in grams {
            self.counts[g as usize] += 1;
        }
        self.loaded = Some((uid, row));
    }
}

/// The per-measure packed layout. One lane per arena: a spec's values all
/// share one measure, so their representations are homogeneous.
#[derive(Debug)]
enum Lane {
    /// `QGram(2)` with every char `< 2⁸`: bigrams packed `(c1 << 8) | c2`.
    Bigrams16 { grams: Vec<u16>, offsets: Vec<u32> },
    /// `QGram(2)` with every char `< 2¹⁶`: packed `(c1 << 16) | c2`.
    Bigrams32 { grams: Vec<u32>, offsets: Vec<u32> },
    /// `QGram(2)` beyond the BMP: the original `(c1 << 32) | c2` packing.
    Bigrams64 { grams: Vec<u64>, offsets: Vec<u32> },
    /// `QGram(q ≠ 2)`: grams interned to their sorted rank — a monotone
    /// map, so each value's id list stays sorted and merge-comparable.
    GramIds { grams: Vec<u32>, offsets: Vec<u32> },
    /// `Exact`: interned trimmed keys, [`EXACT_EMPTY`] for missing.
    Exact { ids: Vec<u32> },
}

impl MultisetArena {
    /// Lay out one representative compiled value per dense id.
    ///
    /// `values[id]` becomes the arena entry scored by id; callers pass one
    /// representative per unique raw value, in id order, all compiled
    /// under one measure.
    ///
    /// # Panics
    /// Panics if the values were compiled under measures with different
    /// representations (in debug builds, under any two measures).
    #[must_use]
    pub fn build(values: &[&CompiledValue]) -> Self {
        debug_assert!(
            values.windows(2).all(|w| w[0].measure() == w[1].measure()),
            "an arena holds the values of one measure"
        );
        let lane = match values.first().map(|v| v.repr()) {
            Some(Repr::Bigrams(_)) => Self::bigram_lane(values),
            Some(Repr::Grams(_)) => Self::gram_id_lane(values),
            // an empty arena scores no pair, so any lane serves it
            Some(Repr::ExactKey(_)) | None => Self::exact_lane(values),
        };
        static NEXT_UID: AtomicU64 = AtomicU64::new(0);
        let uid = NEXT_UID.fetch_add(1, Ordering::Relaxed);
        MultisetArena {
            lane,
            len: values.len(),
            uid,
        }
    }

    fn bigram_lane<'a>(values: &[&'a CompiledValue]) -> Lane {
        let grams_of = |v: &'a CompiledValue| match v.repr() {
            Repr::Bigrams(g) => g.as_slice(),
            _ => unreachable!("homogeneous bigram lane"),
        };
        let mut max_char = 0u32;
        let mut total = 0usize;
        for v in values {
            let g = grams_of(v);
            total += g.len();
            for &id in g {
                max_char = max_char.max((id >> 32) as u32).max(id as u32);
            }
        }
        let offsets = Self::offsets_of(values.iter().map(|v| grams_of(v).len()));
        // Pick the narrowest lane the alphabet allows; the repack
        // (c1, c2) ↦ (c1 << w) | c2 is strictly monotone in the original
        // (c1 << 32) | c2 order whenever both chars fit in w bits, so the
        // per-value sorted order is preserved verbatim.
        if max_char < 1 << 8 {
            let mut grams = Vec::with_capacity(total);
            for v in values {
                grams.extend(
                    grams_of(v)
                        .iter()
                        .map(|&id| (((id >> 32) as u16) << 8) | (id as u16 & 0xFF)),
                );
            }
            Lane::Bigrams16 { grams, offsets }
        } else if max_char < 1 << 16 {
            let mut grams = Vec::with_capacity(total);
            for v in values {
                grams.extend(
                    grams_of(v)
                        .iter()
                        .map(|&id| (((id >> 32) as u32) << 16) | (id as u32 & 0xFFFF)),
                );
            }
            Lane::Bigrams32 { grams, offsets }
        } else {
            let mut grams = Vec::with_capacity(total);
            for v in values {
                grams.extend_from_slice(grams_of(v));
            }
            Lane::Bigrams64 { grams, offsets }
        }
    }

    fn gram_id_lane<'a>(values: &[&'a CompiledValue]) -> Lane {
        let grams_of = |v: &'a CompiledValue| match v.repr() {
            Repr::Grams(g) => g.as_slice(),
            _ => unreachable!("homogeneous gram lane"),
        };
        // Intern grams to their rank in the sorted distinct-gram list:
        // monotone, so sorted multisets stay sorted and equal grams keep
        // colliding — intersection counts are unchanged.
        let mut distinct: Vec<&str> = values
            .iter()
            .flat_map(|v| grams_of(v).iter().map(String::as_str))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        let rank: HashMap<&str, u32> = distinct
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as u32))
            .collect();
        let offsets = Self::offsets_of(values.iter().map(|v| grams_of(v).len()));
        let grams = values
            .iter()
            .flat_map(|v| grams_of(v).iter().map(|g| rank[g.as_str()]))
            .collect();
        Lane::GramIds { grams, offsets }
    }

    fn exact_lane<'a>(values: &[&'a CompiledValue]) -> Lane {
        let key_of = |v: &'a CompiledValue| match v.repr() {
            Repr::ExactKey(k) => k.as_str(),
            _ => unreachable!("homogeneous exact lane"),
        };
        let mut intern: HashMap<&str, u32> = HashMap::new();
        let ids = values
            .iter()
            .map(|v| {
                let k = key_of(v);
                if k.is_empty() {
                    EXACT_EMPTY
                } else {
                    let next = intern.len() as u32;
                    *intern.entry(k).or_insert(next)
                }
            })
            .collect();
        Lane::Exact { ids }
    }

    fn offsets_of(lens: impl Iterator<Item = usize>) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(lens.size_hint().0 + 1);
        let mut total = 0usize;
        offsets.push(0);
        for len in lens {
            total += len;
            offsets.push(u32::try_from(total).expect("arena gram count fits in u32"));
        }
        offsets
    }

    /// Number of values laid out in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lane the builder chose, for telemetry and tests.
    #[must_use]
    pub fn lane_name(&self) -> &'static str {
        match &self.lane {
            Lane::Bigrams16 { .. } => "bigrams16",
            Lane::Bigrams32 { .. } => "bigrams32",
            Lane::Bigrams64 { .. } => "bigrams64",
            Lane::GramIds { .. } => "gram_ids",
            Lane::Exact { .. } => "exact",
        }
    }

    /// Heap bytes owned by the arena's packed buffers (capacity-based,
    /// for memory-footprint estimates).
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        let (grams, offsets) = match &self.lane {
            Lane::Bigrams16 { grams, offsets } => (grams.capacity() * 2, offsets.capacity() * 4),
            Lane::Bigrams32 { grams, offsets } | Lane::GramIds { grams, offsets } => {
                (grams.capacity() * 4, offsets.capacity() * 4)
            }
            Lane::Bigrams64 { grams, offsets } => (grams.capacity() * 8, offsets.capacity() * 4),
            Lane::Exact { ids } => (ids.capacity() * 4, 0),
        };
        (grams + offsets) as u64
    }

    /// Similarity of the values at ids `a` and `b`, bit-identical to
    /// `values[a].similarity(values[b])` on the build inputs.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range for the arena.
    #[must_use]
    pub fn similarity(&self, a: u32, b: u32) -> f64 {
        match &self.lane {
            Lane::Bigrams16 { grams, offsets } => {
                dice(slice_at(grams, offsets, a), slice_at(grams, offsets, b))
            }
            Lane::Bigrams32 { grams, offsets } => {
                dice(slice_at(grams, offsets, a), slice_at(grams, offsets, b))
            }
            Lane::Bigrams64 { grams, offsets } => {
                dice(slice_at(grams, offsets, a), slice_at(grams, offsets, b))
            }
            Lane::GramIds { grams, offsets } => {
                dice(slice_at(grams, offsets, a), slice_at(grams, offsets, b))
            }
            Lane::Exact { ids } => {
                let (ka, kb) = (ids[a as usize], ids[b as usize]);
                if ka == EXACT_EMPTY || kb == EXACT_EMPTY || ka != kb {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }

    /// [`similarity`](Self::similarity) for callers that score one `a`
    /// against many `b` in a row. In the `u16` bigram lane, `a`'s gram
    /// counts stay loaded in `scratch` until `a` changes, and each run
    /// of `r` equal grams in `b` (sorted, so runs are adjacent) meets
    /// `min(r, count_a)` grams of `a` — one probe per distinct gram of
    /// `b` instead of a merge over both. The intersection is the same
    /// integer, fed to the same Dice expression, so the result is
    /// bit-identical to [`similarity`](Self::similarity). Other lanes
    /// delegate to it.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range for the arena.
    #[must_use]
    pub fn similarity_row(&self, scratch: &mut RowScratch, a: u32, b: u32) -> f64 {
        let Lane::Bigrams16 { grams, offsets } = &self.lane else {
            return self.similarity(a, b);
        };
        let (ga, gb) = (slice_at(grams, offsets, a), slice_at(grams, offsets, b));
        if ga.is_empty() || gb.is_empty() {
            return 0.0;
        }
        scratch.load(self.uid, a, ga);
        let (mut n, mut run) = (0usize, 0u32);
        for (k, &g) in gb.iter().enumerate() {
            run += 1;
            if gb.get(k + 1) != Some(&g) {
                n += run.min(scratch.counts[g as usize]) as usize;
                run = 0;
            }
        }
        2.0 * n as f64 / (ga.len() + gb.len()) as f64
    }
}

/// The gram run of value `id` inside the flattened buffer.
fn slice_at<'g, T>(grams: &'g [T], offsets: &[u32], id: u32) -> &'g [T] {
    let id = id as usize;
    &grams[offsets[id] as usize..offsets[id + 1] as usize]
}

/// Dice over two sorted multisets — the same expression, in the same
/// order, as the compiled q-gram path, so the result is bit-identical.
fn dice<T: Ord>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    2.0 * merge_intersection(a, b) as f64 / (a.len() + b.len()) as f64
}

/// Multiset intersection size of two sorted slices by linear merge.
fn merge_intersection<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StringMeasure;
    use proptest::prelude::*;

    fn compile_all(measure: StringMeasure, raws: &[&str]) -> Vec<CompiledValue> {
        raws.iter().map(|r| measure.compile(r)).collect()
    }

    fn assert_round_trip(values: &[CompiledValue]) {
        let refs: Vec<&CompiledValue> = values.iter().collect();
        let arena = MultisetArena::build(&refs);
        assert_eq!(arena.len(), values.len());
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                let got = arena.similarity(i as u32, j as u32);
                let want = a.similarity(b);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "lane {} ids ({i},{j}): {:?} vs {:?} gave {got} want {want}",
                    arena.lane_name(),
                    a.raw(),
                    b.raw(),
                );
            }
        }
    }

    #[test]
    fn ascii_bigrams_pack_into_the_u16_lane() {
        let values = compile_all(
            StringMeasure::QGram(2),
            &["ashworth", "ashwort", "", "mill lane", "a"],
        );
        let refs: Vec<&CompiledValue> = values.iter().collect();
        assert_eq!(MultisetArena::build(&refs).lane_name(), "bigrams16");
        assert_round_trip(&values);
    }

    #[test]
    fn bmp_chars_fall_to_the_u32_lane_and_beyond_to_u64() {
        let bmp = compile_all(StringMeasure::QGram(2), &["weaver", "wéavér", "λόγος"]);
        let refs: Vec<&CompiledValue> = bmp.iter().collect();
        assert_eq!(MultisetArena::build(&refs).lane_name(), "bigrams32");
        assert_round_trip(&bmp);

        let astral = compile_all(StringMeasure::QGram(2), &["weaver", "w𝕏aver"]);
        let refs: Vec<&CompiledValue> = astral.iter().collect();
        assert_eq!(MultisetArena::build(&refs).lane_name(), "bigrams64");
        assert_round_trip(&astral);
    }

    #[test]
    fn trigram_values_intern_to_rank_ids() {
        let values = compile_all(
            StringMeasure::QGram(3),
            &["cotton weaver", "weaver", "", "cotton"],
        );
        let refs: Vec<&CompiledValue> = values.iter().collect();
        assert_eq!(MultisetArena::build(&refs).lane_name(), "gram_ids");
        assert_round_trip(&values);
    }

    #[test]
    fn exact_lane_keeps_missing_values_unmatched() {
        let values = compile_all(StringMeasure::Exact, &["M", "m", "F", "", "  "]);
        let refs: Vec<&CompiledValue> = values.iter().collect();
        assert_eq!(MultisetArena::build(&refs).lane_name(), "exact");
        assert_round_trip(&values);
    }

    #[test]
    fn empty_arena_is_empty() {
        let arena = MultisetArena::build(&[]);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn heap_bytes_tracks_the_packed_buffers() {
        let values = compile_all(StringMeasure::QGram(2), &["ashworth", "mill lane"]);
        let refs: Vec<&CompiledValue> = values.iter().collect();
        let arena = MultisetArena::build(&refs);
        assert!(arena.heap_bytes() > 0);
    }

    /// `similarity_row` against `similarity` over `order` with one
    /// scratch, then over every pair, so rows load in arbitrary order.
    fn assert_rows_match(values: &[CompiledValue], order: &[(u32, u32)]) {
        let refs: Vec<&CompiledValue> = values.iter().collect();
        let arena = MultisetArena::build(&refs);
        let n = values.len() as u32;
        let all = (0..n).flat_map(|a| (0..n).map(move |b| (a, b)));
        let mut scratch = RowScratch::default();
        for (a, b) in order.iter().map(|&(a, b)| (a % n, b % n)).chain(all) {
            assert_eq!(
                arena.similarity_row(&mut scratch, a, b).to_bits(),
                arena.similarity(a, b).to_bits(),
                "lane {} ids ({a},{b}): {:?} vs {:?}",
                arena.lane_name(),
                values[a as usize].raw(),
                values[b as usize].raw(),
            );
        }
    }

    #[test]
    fn row_scoring_counts_repeated_grams() {
        let values = compile_all(
            StringMeasure::QGram(2),
            &["aaaa", "aa", "", "abab", "ba", "é", "éé", "aaaa"],
        );
        let order = [
            (0, 1),
            (1, 0),
            (0, 0),
            (3, 4),
            (2, 0),
            (0, 2),
            (5, 6),
            (7, 1),
        ];
        assert_rows_match(&values, &order);
    }

    #[test]
    fn row_scratch_never_serves_another_arenas_row() {
        let first = compile_all(StringMeasure::QGram(2), &["aaaa", "aaaa"]);
        let second = compile_all(StringMeasure::QGram(2), &["zz", "aaaa"]);
        let first_refs: Vec<&CompiledValue> = first.iter().collect();
        let second_refs: Vec<&CompiledValue> = second.iter().collect();
        let (a1, a2) = (
            MultisetArena::build(&first_refs),
            MultisetArena::build(&second_refs),
        );
        let mut scratch = RowScratch::default();
        assert_eq!(a1.similarity_row(&mut scratch, 0, 1), 1.0);
        // row 0 again, but of the second arena: "zz" shares nothing
        assert_eq!(a2.similarity_row(&mut scratch, 0, 1), 0.0);
    }

    proptest! {
        #[test]
        fn prop_similarity_row_equals_similarity(
            small in proptest::collection::vec("[ab]{0,7}", 1..8),
            latin in proptest::collection::vec("[aéz ]{0,8}", 1..8),
            any in proptest::collection::vec(".{0,8}", 1..8),
            which in 0usize..3,
            order in proptest::collection::vec((0u32..64, 0u32..64), 1..80),
        ) {
            let raws = [small, latin, any].into_iter().nth(which).unwrap_or_default();
            let values: Vec<CompiledValue> =
                raws.iter().map(|r| StringMeasure::QGram(2).compile(r)).collect();
            assert_rows_match(&values, &order);
        }

        #[test]
        fn prop_arena_round_trips_bigrams(raws in proptest::collection::vec(".{0,12}", 1..8)) {
            let values: Vec<CompiledValue> =
                raws.iter().map(|r| StringMeasure::QGram(2).compile(r)).collect();
            let refs: Vec<&CompiledValue> = values.iter().collect();
            let arena = MultisetArena::build(&refs);
            for (i, a) in values.iter().enumerate() {
                for (j, b) in values.iter().enumerate() {
                    prop_assert_eq!(
                        arena.similarity(i as u32, j as u32).to_bits(),
                        a.similarity(b).to_bits()
                    );
                }
            }
        }

        #[test]
        fn prop_arena_round_trips_every_measure(
            raws in proptest::collection::vec("[a-zA-Zé ]{0,10}", 1..6),
            which in 0usize..3,
        ) {
            let measure = [
                StringMeasure::QGram(2),
                StringMeasure::QGram(3),
                StringMeasure::Exact,
            ][which];
            let values: Vec<CompiledValue> = raws.iter().map(|r| measure.compile(r)).collect();
            let refs: Vec<&CompiledValue> = values.iter().collect();
            let arena = MultisetArena::build(&refs);
            for (i, a) in values.iter().enumerate() {
                for (j, b) in values.iter().enumerate() {
                    prop_assert_eq!(
                        arena.similarity(i as u32, j as u32).to_bits(),
                        a.similarity(b).to_bits()
                    );
                }
            }
        }
    }
}
