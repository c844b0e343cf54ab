//! Attribute similarity functions (`Sim_func` of the paper, Table 2).

use census_model::{Attribute, PersonRecord};
use textsim::{normalize_value, CompiledValue, StringMeasure};

/// Margin protecting the early-exit bound against cross-order float
/// rounding: a pair is pruned only when its upper bound is below
/// `δ − PRUNE_EPS`, so re-ordering the weighted sum can never flip a
/// would-be accept into a reject.
const PRUNE_EPS: f64 = 1e-9;

/// One attribute comparison: which attribute, with which string measure,
/// at which weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributeSpec {
    /// Attribute to compare.
    pub attribute: Attribute,
    /// String measure to apply.
    pub measure: StringMeasure,
    /// Weight in the aggregated similarity (weights should sum to 1).
    pub weight: f64,
}

/// A weighted attribute similarity function with a match threshold δ.
///
/// `agg_sim(a, b) = Σ_k ω_k · sim_k(a, b)` (Eq. 3); a pair *matches* when
/// `agg_sim ≥ δ`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFunc {
    specs: Vec<AttributeSpec>,
    /// Spec indices in descending weight order — the early-exit schedule
    /// of [`SimFunc::matches_compiled`].
    order: Vec<usize>,
    /// `suffix[k]` = total weight of `order[k..]`; `suffix[len] == 0`.
    suffix: Vec<f64>,
    /// Match threshold δ; mutated by the iterative driver.
    pub threshold: f64,
}

/// A record's attribute values compiled for repeated scoring: the
/// measure-specific representations of the normalised values, in spec
/// order. Built once per record by [`SimFunc::compile`], scored many
/// times by [`SimFunc::aggregate_compiled`] / [`SimFunc::matches_compiled`].
///
/// A profile depends only on the record and the attribute *specs* — not
/// on the threshold. The pipeline itself keeps no profiles: it interns
/// each distinct value once per run (see `ProfileCache`).
#[derive(Debug, Clone)]
pub struct CompiledProfile {
    values: Vec<CompiledValue>,
}

impl CompiledProfile {
    /// The compiled values, in spec order.
    #[must_use]
    pub fn values(&self) -> &[CompiledValue] {
        &self.values
    }
}

impl SimFunc {
    /// Build a similarity function from specs.
    ///
    /// # Panics
    ///
    /// Panics if the weights do not sum to 1 (within 1e-6), if `specs` is
    /// empty, or if the threshold is outside `[0, 1]`.
    #[must_use]
    pub fn new(specs: Vec<AttributeSpec>, threshold: f64) -> Self {
        assert!(!specs.is_empty(), "SimFunc needs at least one attribute");
        let total: f64 = specs.iter().map(|s| s.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "attribute weights must sum to 1, got {total}"
        );
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by(|&a, &b| {
            specs[b]
                .weight
                .partial_cmp(&specs[a].weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut suffix = vec![0.0; specs.len() + 1];
        for k in (0..specs.len()).rev() {
            suffix[k] = suffix[k + 1] + specs[order[k]].weight;
        }
        Self {
            specs,
            order,
            suffix,
            threshold,
        }
    }

    /// The paper's ω1: equal weight 0.2 on first name, sex, surname,
    /// address and occupation (Table 2), q-gram for strings, exact for sex.
    #[must_use]
    pub fn omega1(threshold: f64) -> Self {
        Self::weighted(&[0.2, 0.2, 0.2, 0.2, 0.2], threshold)
    }

    /// The paper's ω2: first name 0.4, sex 0.2, surname 0.2, address 0.1,
    /// occupation 0.1 (Table 2) — the better configuration.
    #[must_use]
    pub fn omega2(threshold: f64) -> Self {
        Self::weighted(&[0.4, 0.2, 0.2, 0.1, 0.1], threshold)
    }

    /// Build a Table 2-shaped function with custom weights over
    /// `[first name, sex, surname, address, occupation]`.
    ///
    /// # Panics
    ///
    /// Panics unless exactly five weights summing to 1 are given.
    #[must_use]
    pub fn weighted(weights: &[f64; 5], threshold: f64) -> Self {
        let attrs = Attribute::SIM_FUNC_SET;
        let specs = attrs
            .iter()
            .zip(weights.iter())
            .map(|(&attribute, &weight)| AttributeSpec {
                attribute,
                measure: if attribute == Attribute::Sex {
                    StringMeasure::Exact
                } else {
                    StringMeasure::QGram(2)
                },
                weight,
            })
            .collect();
        Self::new(specs, threshold)
    }

    /// The attribute specs.
    #[must_use]
    pub fn specs(&self) -> &[AttributeSpec] {
        &self.specs
    }

    /// A copy with a different threshold.
    #[must_use]
    pub fn with_threshold(&self, threshold: f64) -> Self {
        Self {
            specs: self.specs.clone(),
            order: self.order.clone(),
            suffix: self.suffix.clone(),
            threshold,
        }
    }

    /// Precompute the normalised attribute values of a record, in spec
    /// order. Comparing profiles avoids re-normalising in the O(n·m)
    /// comparison loop.
    #[must_use]
    pub fn profile(&self, r: &PersonRecord) -> Vec<String> {
        self.specs
            .iter()
            .map(|s| normalize_value(&r.attribute_value(s.attribute)))
            .collect()
    }

    /// Aggregated similarity of two precomputed profiles (Eq. 3).
    #[must_use]
    pub fn aggregate_profiles(&self, a: &[String], b: &[String]) -> f64 {
        debug_assert_eq!(a.len(), self.specs.len());
        debug_assert_eq!(b.len(), self.specs.len());
        self.specs
            .iter()
            .zip(a.iter().zip(b.iter()))
            .map(|(s, (va, vb))| s.weight * s.measure.similarity(va, vb))
            .sum()
    }

    /// Compile a record's normalised attribute values into their
    /// measure-specific representations (q-gram multisets, exact keys),
    /// in spec order.
    #[must_use]
    pub fn compile(&self, r: &PersonRecord) -> CompiledProfile {
        CompiledProfile {
            values: self
                .specs
                .iter()
                .map(|s| {
                    s.measure
                        .compile(&normalize_value(&r.attribute_value(s.attribute)))
                })
                .collect(),
        }
    }

    /// Aggregated similarity of two compiled profiles (Eq. 3).
    ///
    /// Bit-identical to [`SimFunc::aggregate_profiles`] on the same
    /// records: the per-attribute scores are exact and the weighted sum
    /// folds in the same spec order.
    #[must_use]
    pub fn aggregate_compiled(&self, a: &CompiledProfile, b: &CompiledProfile) -> f64 {
        debug_assert_eq!(a.values.len(), self.specs.len());
        debug_assert_eq!(b.values.len(), self.specs.len());
        self.specs
            .iter()
            .zip(a.values.iter().zip(b.values.iter()))
            .map(|(s, (va, vb))| s.weight * va.similarity(vb))
            .sum()
    }

    /// `Some(agg_sim)` if the compiled pair matches at δ, scoring the
    /// attributes in descending weight order and bailing out as soon as
    /// the remaining weight mass cannot lift the sum to the threshold.
    ///
    /// Decision-identical to `aggregate_profiles(..) >= threshold`: the
    /// bound only ever prunes *provable* rejects (with a `PRUNE_EPS`
    /// margin against cross-order rounding), and survivors are re-scored
    /// with [`SimFunc::aggregate_compiled`] in original spec order, so
    /// the returned score is bit-identical to the naive path's.
    #[must_use]
    pub fn matches_compiled(&self, a: &CompiledProfile, b: &CompiledProfile) -> Option<f64> {
        let mut prunes = 0;
        self.matches_compiled_counted(a, b, &mut prunes)
    }

    /// [`SimFunc::matches_compiled`] that additionally increments
    /// `prunes` when the early-exit bound rejects the pair before every
    /// attribute was scored — the signal the observability layer
    /// aggregates into its `early_exit_prunes` counter. Accumulating
    /// into a caller-local integer keeps the hot loop free of any
    /// synchronisation.
    #[must_use]
    pub fn matches_compiled_counted(
        &self,
        a: &CompiledProfile,
        b: &CompiledProfile,
        prunes: &mut u64,
    ) -> Option<f64> {
        // each attribute is scored exactly once: the early-exit loop
        // stashes the per-attribute scores, and survivors fold them in
        // original spec order — the exact arithmetic of
        // `aggregate_compiled`, without a second scoring pass (which at
        // low thresholds, where most pairs survive, would dominate)
        const MAX_INLINE: usize = 16;
        let mut inline = [0.0f64; MAX_INLINE];
        let mut spilled = Vec::new();
        let sims: &mut [f64] = if self.specs.len() <= MAX_INLINE {
            &mut inline[..self.specs.len()]
        } else {
            spilled.resize(self.specs.len(), 0.0);
            &mut spilled
        };
        let mut partial = 0.0;
        for (k, &i) in self.order.iter().enumerate() {
            let v = a.values[i].similarity(&b.values[i]);
            sims[i] = v;
            partial += self.specs[i].weight * v;
            if self.bound_fails_after(partial, k) {
                if k + 1 < self.order.len() {
                    *prunes += 1;
                }
                return None;
            }
        }
        self.fold_survivor(sims)
    }

    // --- the pieces of the early-exit loop ------------------------------
    // The row kernel scores attributes in the same descending-weight
    // order, with similarities served from its value-pair memo, and
    // stops at the same bound checks. These accessors hand it the exact
    // pieces of
    // `matches_compiled_counted` — order, per-step bound, survivor fold —
    // so the two share the arithmetic instead of duplicating it (any
    // drift would break their bit-identity, which the prematch oracle
    // suite enforces).

    /// Spec indices in descending weight order — the order the early-exit
    /// loop scores attributes in.
    #[must_use]
    pub(crate) fn spec_order(&self) -> &[usize] {
        &self.order
    }

    /// Weight of spec `i`.
    #[must_use]
    pub(crate) fn weight_of(&self, i: usize) -> f64 {
        self.specs[i].weight
    }

    /// The early-exit bound check after the `k`-th scored attribute:
    /// `partial` is the descending-order weighted sum so far, and the
    /// check fails exactly when the remaining weight mass (every
    /// outstanding attribute a perfect 1.0) can no longer lift it to the
    /// threshold — the `matches_compiled_counted` prune condition,
    /// `PRUNE_EPS` margin included.
    #[must_use]
    pub(crate) fn bound_fails_after(&self, partial: f64, k: usize) -> bool {
        partial + self.suffix[k + 1] < self.threshold - PRUNE_EPS
    }

    /// The survivor fold of `matches_compiled_counted`: re-sum the
    /// per-spec similarities in original spec order and apply the
    /// threshold. `sims` is indexed by spec, one exact similarity each.
    #[must_use]
    pub(crate) fn fold_survivor(&self, sims: &[f64]) -> Option<f64> {
        let s: f64 = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, sp)| sp.weight * sims[i])
            .sum();
        (s >= self.threshold).then_some(s)
    }

    /// Aggregated similarity of two records (convenience; profile-based
    /// code paths are faster in bulk).
    #[must_use]
    pub fn aggregate(&self, a: &PersonRecord, b: &PersonRecord) -> f64 {
        self.aggregate_profiles(&self.profile(a), &self.profile(b))
    }

    /// `Some(agg_sim)` if the pair matches at the current threshold.
    #[must_use]
    pub fn matches(&self, a: &PersonRecord, b: &PersonRecord) -> Option<f64> {
        let s = self.aggregate(a, b);
        (s >= self.threshold).then_some(s)
    }
}

impl Default for SimFunc {
    /// The paper's best pre-matching configuration: ω2 at δ_low = 0.5.
    fn default() -> Self {
        Self::omega2(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{HouseholdId, RecordId, Role, Sex};

    fn rec(fname: &str, sname: &str, sex: Sex, addr: &str, occ: &str) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(0), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = sname.into();
        r.sex = Some(sex);
        r.address = addr.into();
        r.occupation = occ.into();
        r
    }

    #[test]
    fn identical_records_score_one() {
        let a = rec("john", "ashworth", Sex::Male, "4 mill lane", "weaver");
        for f in [SimFunc::omega1(0.5), SimFunc::omega2(0.5)] {
            assert!((f.aggregate(&a, &a) - 1.0).abs() < 1e-9);
            assert!(f.matches(&a, &a).is_some());
        }
    }

    #[test]
    fn completely_different_records_score_low() {
        let a = rec("john", "ashworth", Sex::Male, "4 mill lane", "weaver");
        let b = rec("mary", "pilkington", Sex::Female, "90 bury road", "spinner");
        assert!(SimFunc::omega2(0.5).aggregate(&a, &b) < 0.2);
        assert!(SimFunc::omega2(0.5).matches(&a, &b).is_none());
    }

    #[test]
    fn omega2_upweights_first_name() {
        // same first name, all else different: ω2 (0.4 on fn) > ω1 (0.2)
        let a = rec("john", "ashworth", Sex::Male, "4 mill lane", "weaver");
        let b = rec("john", "pilkington", Sex::Female, "90 bury road", "spinner");
        let s1 = SimFunc::omega1(0.0).aggregate(&a, &b);
        let s2 = SimFunc::omega2(0.0).aggregate(&a, &b);
        assert!(s2 > s1, "ω2 {s2} should exceed ω1 {s1}");
    }

    #[test]
    fn missing_values_contribute_zero() {
        let a = rec("john", "ashworth", Sex::Male, "", "");
        let b = rec("john", "ashworth", Sex::Male, "", "");
        // fn + sex + sn match = 0.4 + 0.2 + 0.2 under ω2; addr/occ missing
        let s = SimFunc::omega2(0.5).aggregate(&a, &b);
        assert!((s - 0.8).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn typo_tolerance_via_qgrams() {
        let a = rec(
            "elizabeth",
            "ashworth",
            Sex::Female,
            "4 mill lane",
            "spinner",
        );
        let b = rec(
            "elizabteh",
            "ashworth",
            Sex::Female,
            "4 mill lane",
            "spinner",
        );
        let s = SimFunc::omega2(0.5).aggregate(&a, &b);
        assert!(s > 0.8, "typo should keep similarity high, got {s}");
    }

    #[test]
    fn profiles_equal_direct_aggregation() {
        let f = SimFunc::omega2(0.5);
        let a = rec("John", "ASHWORTH", Sex::Male, "4, Mill Lane", "Weaver");
        let b = rec("john", "ashworth", Sex::Male, "4 mill lane", "weaver");
        let pa = f.profile(&a);
        let pb = f.profile(&b);
        assert!((f.aggregate_profiles(&pa, &pb) - f.aggregate(&a, &b)).abs() < 1e-12);
        // normalisation makes the two spellings identical
        assert!((f.aggregate(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compiled_equals_profile_aggregation() {
        let pairs = [
            ("john", "ashworth", "4 mill lane", "weaver"),
            ("jon", "ashwerth", "90 bury road", "spinner"),
            ("", "", "", ""),
            ("Elizabeth", "PILKINGTON", "  ", "cotton weaver"),
        ];
        for f in [SimFunc::omega1(0.5), SimFunc::omega2(0.7)] {
            for (fa, sa, aa, oa) in pairs {
                for (fb, sb, ab, ob) in pairs {
                    let a = rec(fa, sa, Sex::Male, aa, oa);
                    let b = rec(fb, sb, Sex::Male, ab, ob);
                    let (ca, cb) = (f.compile(&a), f.compile(&b));
                    let naive = f.aggregate_profiles(&f.profile(&a), &f.profile(&b));
                    // same arithmetic in the same order — exact equality
                    assert_eq!(f.aggregate_compiled(&ca, &cb), naive);
                    assert_eq!(f.matches_compiled(&ca, &cb), f.matches(&a, &b));
                }
            }
        }
    }

    #[test]
    fn early_exit_prunes_hopeless_pairs_only() {
        // all-different pair: under ω2 at δ=1.0 the first attribute
        // already caps the sum below δ, so the fast path must reject —
        // and must agree with the naive decision
        let a = rec("john", "ashworth", Sex::Male, "4 mill lane", "weaver");
        let b = rec("mary", "pilkington", Sex::Female, "90 bury road", "spinner");
        for t in [0.5, 0.7, 1.0] {
            let f = SimFunc::omega2(t);
            let (ca, cb) = (f.compile(&a), f.compile(&b));
            assert_eq!(
                f.matches_compiled(&ca, &cb).is_some(),
                f.matches(&a, &b).is_some()
            );
        }
        // perfect pair survives every bound at δ = 1.0
        let f = SimFunc::omega2(1.0);
        let ca = f.compile(&a);
        assert_eq!(
            f.matches_compiled(&ca, &ca.clone()),
            Some(f.aggregate(&a, &a))
        );
    }

    #[test]
    fn with_threshold_copies() {
        let f = SimFunc::omega2(0.7);
        let g = f.with_threshold(0.4);
        assert_eq!(g.threshold, 0.4);
        assert_eq!(f.threshold, 0.7);
        assert_eq!(f.specs(), g.specs());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_weights_panic() {
        let _ = SimFunc::weighted(&[0.5, 0.5, 0.5, 0.0, 0.0], 0.5);
    }
}
