//! Weighted multi-profile merging with age decay.
//!
//! The fleet scenario (§2, §5 of the paper): thousands of machines
//! serve unequal traffic shares, each streaming LBR samples collected
//! on whatever binary version it currently runs. Before a release is
//! relinked, those per-machine profiles are merged into one aggregated
//! profile, weighted by each source's sample volume and discounted by
//! how many releases old it is.
//!
//! The merge is *exactly conservative*: the merged branch (and
//! fall-through) totals equal the sum of the inputs' totals, so
//! downstream hot/cold thresholds (`WpaOptions::block_is_sampled_hot`,
//! `WpaOptions::min_function_samples`) keep their natural magnitudes
//! no matter how the weights tilt. Conservation is achieved by normalizing the
//! weighted per-edge mass back to the input total with deterministic
//! largest-remainder rounding (remainder descending, then edge key
//! ascending), so the result is a pure function of the inputs —
//! bit-identical across runs, machines, and `--jobs` counts.
//!
//! All intermediate arithmetic widens to `u128` before multiplying and
//! saturates instead of wrapping (the same discipline as the DCFG's
//! weight math). For pathological inputs whose total mass exceeds
//! `u128`, the merge degrades to saturated-but-deterministic counts;
//! conservation is exact whenever `total mass x target total` fits in
//! 128 bits, which covers every realistic fleet by many orders of
//! magnitude.

use crate::agg::AggregatedProfile;
use std::collections::{BTreeMap, HashMap};

/// One profile source entering a merge: an aggregated profile plus its
/// scheduling inputs.
#[derive(Clone, Debug)]
pub struct ProfileSource {
    /// The source's aggregated counts (already translated into the
    /// target binary's address space, if it was collected elsewhere).
    pub agg: AggregatedProfile,
    /// Relative weight, typically the source's sample volume (a
    /// machine that served 3x the traffic counts 3x as much).
    pub weight: u64,
    /// Age in releases: 0 = collected on the binary being relinked,
    /// k = collected k releases ago. Older sources decay by
    /// [`MergeOptions::decay_num`]`/`[`MergeOptions::decay_den`] per
    /// release.
    pub age: u32,
}

/// Merge configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MergeOptions {
    /// Numerator of the per-release decay factor.
    pub decay_num: u32,
    /// Denominator of the per-release decay factor. A source of age
    /// `a` contributes with weight `weight * (decay_num/decay_den)^a`.
    pub decay_den: u32,
}

impl Default for MergeOptions {
    fn default() -> Self {
        // Halve a profile's influence per release of staleness.
        MergeOptions {
            decay_num: 1,
            decay_den: 2,
        }
    }
}

impl MergeOptions {
    /// No decay: every source counts at its raw weight regardless of
    /// age.
    pub fn no_decay() -> Self {
        MergeOptions {
            decay_num: 1,
            decay_den: 1,
        }
    }
}

fn sat_mul(a: u128, b: u128) -> u128 {
    a.saturating_mul(b)
}

fn sat_pow(base: u128, exp: u32) -> u128 {
    let mut acc = 1u128;
    for _ in 0..exp {
        acc = sat_mul(acc, base);
    }
    acc
}

/// The effective (decayed) weight of a source, on the common
/// denominator `decay_den^max_age`: `weight * num^age * den^(max_age -
/// age)`. Exposed so the age-decay monotonicity property is directly
/// testable: for `decay_num < decay_den`, this is non-increasing in
/// `age` at fixed `weight` and `max_age`.
pub fn effective_weight(weight: u64, age: u32, max_age: u32, opts: &MergeOptions) -> u128 {
    debug_assert!(age <= max_age);
    debug_assert!(opts.decay_den > 0, "decay denominator must be nonzero");
    sat_mul(
        weight as u128,
        sat_mul(
            sat_pow(opts.decay_num as u128, age),
            sat_pow(opts.decay_den as u128, max_age - age),
        ),
    )
}

/// One source's edge map paired with its effective weight.
type ScaledEdges<'a> = (&'a HashMap<(u64, u64), u64>, u128);

/// Merges one edge map: accumulate `count * effective_weight` mass per
/// edge, then redistribute the exact input total `target` over the
/// edges proportionally, with deterministic largest-remainder rounding.
fn merge_edge_maps(maps: &[ScaledEdges<'_>], target: u128) -> HashMap<(u64, u64), u64> {
    let mut mass: BTreeMap<(u64, u64), u128> = BTreeMap::new();
    for (map, scale) in maps {
        if *scale == 0 {
            continue;
        }
        for (&edge, &count) in *map {
            let m = mass.entry(edge).or_insert(0);
            *m = m.saturating_add(sat_mul(count as u128, *scale));
        }
    }
    let mut total_mass: u128 = mass.values().fold(0u128, |a, &m| a.saturating_add(m));
    if total_mass == 0 || target == 0 {
        return HashMap::new();
    }
    // `mass * target` must fit in u128 or the quotas below lose all
    // proportionality. Right-shifting every mass by the same amount
    // preserves the shares (a pure function of the totals, so still
    // deterministic and order-free); only sources whose entire mass
    // vanishes under the shift — below 2^-63 of the total — lose
    // representation.
    let mass_bits = 128 - total_mass.leading_zeros();
    let target_bits = 128 - target.leading_zeros();
    let shift = (mass_bits + target_bits).saturating_sub(127);
    if shift > 0 {
        for m in mass.values_mut() {
            *m >>= shift;
        }
        mass.retain(|_, &mut m| m > 0);
        total_mass = mass.values().sum();
        if total_mass == 0 {
            return HashMap::new();
        }
    }
    // Integer quota per edge plus its remainder; the leftover units
    // (fewer than the number of edges now that the mass product fits
    // in u128) go to the largest remainders, ties broken by edge key.
    let mut out: HashMap<(u64, u64), u64> = HashMap::with_capacity(mass.len());
    let mut assigned: u128 = 0;
    let mut remainders: Vec<(u128, (u64, u64))> = Vec::with_capacity(mass.len());
    for (&edge, &m) in &mass {
        let scaled = sat_mul(m, target);
        let quota = scaled / total_mass;
        let rem = scaled % total_mass;
        assigned = assigned.saturating_add(quota);
        out.insert(edge, u64::try_from(quota).unwrap_or(u64::MAX));
        remainders.push((rem, edge));
    }
    let mut leftover = target.saturating_sub(assigned);
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, edge) in remainders {
        if leftover == 0 {
            break;
        }
        let e = out.get_mut(&edge).expect("edge was just inserted");
        *e = e.saturating_add(1);
        leftover -= 1;
    }
    out.retain(|_, &mut v| v > 0);
    out
}

/// One source's share of a merge, for provenance reporting: its
/// scheduling inputs, the decayed weight the merge actually used, and
/// the raw branch mass it brought in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceContribution {
    /// Index of the source in the merge's input slice.
    pub index: usize,
    /// Raw weight as passed in.
    pub weight: u64,
    /// Age in releases as passed in.
    pub age: u32,
    /// The effective (decayed) weight used, on the common denominator
    /// `decay_den^max_age` — see [`effective_weight`]. Zero means the
    /// source was dropped entirely.
    pub effective: u128,
    /// The source's own total branch count (its un-decayed sample
    /// mass).
    pub branch_total: u64,
}

/// What one [`merge_profiles_logged`] call did: the decay rule in
/// force and every source's decayed contribution, in input order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MergeProvenance {
    /// Largest source age seen (the common-denominator exponent).
    pub max_age: u32,
    /// Decay numerator in force.
    pub decay_num: u32,
    /// Decay denominator in force.
    pub decay_den: u32,
    /// Per-source contributions, in input order.
    pub sources: Vec<SourceContribution>,
}

/// Merges profile sources into one aggregated profile.
///
/// Properties (see the module docs for the arithmetic caveats):
///
/// * **Conservation** — the merged branch total equals the sum of the
///   inputs' branch totals (likewise fall-throughs), exactly.
/// * **Commutativity** — source order never matters: accumulation is
///   additive and every tie-break is keyed on edge addresses.
/// * **Identity / addition** — a single source, or several sources at
///   equal weight and age, merge to the exact per-edge sum of their
///   counts (which also makes the uniform case associative).
/// * **Age decay** — at `decay_num < decay_den`, an older source's
///   share of the merged counts is non-increasing in its age.
///
/// Sources with zero weight (or fully-decayed weight) contribute
/// nothing; with no effective sources the result is empty.
pub fn merge_profiles(sources: &[ProfileSource], opts: &MergeOptions) -> AggregatedProfile {
    merge_profiles_logged(sources, opts, None)
}

/// [`merge_profiles`], additionally filling `log` (when given) with
/// each source's decayed contribution. The merged profile is identical
/// either way; arming only records *who* funded the merged counts and
/// at what decayed weight.
pub fn merge_profiles_logged(
    sources: &[ProfileSource],
    opts: &MergeOptions,
    log: Option<&mut MergeProvenance>,
) -> AggregatedProfile {
    assert!(opts.decay_den > 0, "decay denominator must be nonzero");
    let max_age = sources.iter().map(|s| s.age).max().unwrap_or(0);
    let scales: Vec<u128> = sources
        .iter()
        .map(|s| effective_weight(s.weight, s.age, max_age, opts))
        .collect();
    if let Some(log) = log {
        log.max_age = max_age;
        log.decay_num = opts.decay_num;
        log.decay_den = opts.decay_den;
        log.sources = sources
            .iter()
            .zip(&scales)
            .enumerate()
            .map(|(index, (s, &effective))| SourceContribution {
                index,
                weight: s.weight,
                age: s.age,
                effective,
                branch_total: s.agg.total_branch_count(),
            })
            .collect();
    }
    let branch_target: u128 = sources
        .iter()
        .zip(&scales)
        .filter(|(_, &sc)| sc > 0)
        .map(|(s, _)| {
            s.agg
                .branches
                .values()
                .fold(0u128, |a, &v| a.saturating_add(v as u128))
        })
        .fold(0u128, |a, t| a.saturating_add(t));
    let ft_target: u128 = sources
        .iter()
        .zip(&scales)
        .filter(|(_, &sc)| sc > 0)
        .map(|(s, _)| {
            s.agg
                .fallthroughs
                .values()
                .fold(0u128, |a, &v| a.saturating_add(v as u128))
        })
        .fold(0u128, |a, t| a.saturating_add(t));
    let branch_maps: Vec<ScaledEdges<'_>> = sources
        .iter()
        .zip(&scales)
        .map(|(s, &sc)| (&s.agg.branches, sc))
        .collect();
    let ft_maps: Vec<ScaledEdges<'_>> = sources
        .iter()
        .zip(&scales)
        .map(|(s, &sc)| (&s.agg.fallthroughs, sc))
        .collect();
    AggregatedProfile {
        branches: merge_edge_maps(&branch_maps, branch_target),
        fallthroughs: merge_edge_maps(&ft_maps, ft_target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(edges: &[((u64, u64), u64)]) -> AggregatedProfile {
        AggregatedProfile {
            branches: edges.iter().copied().collect(),
            fallthroughs: HashMap::new(),
        }
    }

    fn src(edges: &[((u64, u64), u64)], weight: u64, age: u32) -> ProfileSource {
        ProfileSource {
            agg: agg(edges),
            weight,
            age,
        }
    }

    #[test]
    fn single_source_is_identity() {
        let s = src(&[((1, 2), 10), ((3, 4), 7)], 5, 0);
        let m = merge_profiles(std::slice::from_ref(&s), &MergeOptions::default());
        assert_eq!(m, s.agg);
    }

    #[test]
    fn uniform_merge_is_exact_addition() {
        let a = src(&[((1, 2), 10), ((3, 4), 5)], 3, 0);
        let b = src(&[((1, 2), 2), ((5, 6), 8)], 3, 0);
        let m = merge_profiles(&[a, b], &MergeOptions::default());
        assert_eq!(m.branches[&(1, 2)], 12);
        assert_eq!(m.branches[&(3, 4)], 5);
        assert_eq!(m.branches[&(5, 6)], 8);
        assert_eq!(m.total_branch_count(), 25);
    }

    #[test]
    fn conservation_under_skewed_weights_and_ages() {
        let sources = [
            src(&[((1, 2), 941), ((3, 4), 59)], 17, 0),
            src(&[((1, 2), 3), ((9, 9), 777)], 400_000, 2),
            src(&[((5, 6), 123_456)], 1, 5),
        ];
        let m = merge_profiles(&sources, &MergeOptions::default());
        let want: u64 = sources.iter().map(|s| s.agg.total_branch_count()).sum();
        assert_eq!(m.total_branch_count(), want);
    }

    #[test]
    fn zero_weight_and_empty_inputs() {
        assert_eq!(
            merge_profiles(&[], &MergeOptions::default()),
            AggregatedProfile::default()
        );
        let dead = src(&[((1, 2), 100)], 0, 0);
        let live = src(&[((3, 4), 10)], 1, 0);
        let m = merge_profiles(&[dead, live], &MergeOptions::default());
        assert!(!m.branches.contains_key(&(1, 2)));
        assert_eq!(m.branches[&(3, 4)], 10);
    }

    #[test]
    fn fully_decayed_source_drops_out() {
        // decay 0/1: any age > 0 zeroes the source.
        let opts = MergeOptions {
            decay_num: 0,
            decay_den: 1,
        };
        let old = src(&[((1, 2), 1000)], 50, 1);
        let new = src(&[((3, 4), 4)], 1, 0);
        let m = merge_profiles(&[old, new], &opts);
        assert!(!m.branches.contains_key(&(1, 2)));
        assert_eq!(m.branches[&(3, 4)], 4);
    }

    #[test]
    fn age_decay_shrinks_a_sources_share() {
        let fresh_counts = &[((1, 2), 1000u64)];
        let other = src(&[((3, 4), 1000)], 10, 0);
        let mut last = u64::MAX;
        for age in 0..4 {
            let m = merge_profiles(
                &[src(fresh_counts, 10, age), other.clone()],
                &MergeOptions::default(),
            );
            let share = m.branches.get(&(1, 2)).copied().unwrap_or(0);
            assert!(
                share <= last,
                "share at age {age} ({share}) exceeds age {} ({last})",
                age - 1
            );
            last = share;
        }
    }

    #[test]
    fn logged_merge_is_identical_and_records_decayed_weights() {
        let sources = [
            src(&[((1, 2), 941), ((3, 4), 59)], 17, 0),
            src(&[((1, 2), 3), ((9, 9), 777)], 400, 2),
            src(&[((5, 6), 123)], 1, 1),
        ];
        let opts = MergeOptions::default();
        let plain = merge_profiles(&sources, &opts);
        let mut log = MergeProvenance::default();
        let logged = merge_profiles_logged(&sources, &opts, Some(&mut log));
        assert_eq!(plain, logged, "arming must not change the merge");
        assert_eq!(log.max_age, 2);
        assert_eq!((log.decay_num, log.decay_den), (1, 2));
        assert_eq!(log.sources.len(), 3);
        // Age 0 at decay 1/2 over max_age 2: weight * 2^2.
        assert_eq!(log.sources[0].effective, 17 * 4);
        // Age 2: weight * 1^2 * 2^0.
        assert_eq!(log.sources[1].effective, 400);
        // Age 1: weight * 1 * 2.
        assert_eq!(log.sources[2].effective, 2);
        assert_eq!(log.sources[0].branch_total, 1000);
        assert_eq!(log.sources[1].index, 1);
    }

    #[test]
    fn commutative_under_permutation() {
        let a = src(&[((1, 2), 941), ((3, 4), 59)], 17, 1);
        let b = src(&[((1, 2), 3), ((9, 9), 777)], 400, 0);
        let c = src(&[((5, 6), 13)], 90, 3);
        let opts = MergeOptions::default();
        let abc = merge_profiles(&[a.clone(), b.clone(), c.clone()], &opts);
        let cba = merge_profiles(&[c, b, a], &opts);
        assert_eq!(abc, cba);
    }

    #[test]
    fn u64_max_adjacent_weights_saturate_deterministically() {
        // Widen-before-multiply: weight * count at u64::MAX-adjacent
        // values must not wrap. The result saturates per edge but the
        // merge still completes and is a pure function of its inputs.
        let huge = src(&[((1, 2), u64::MAX - 1)], u64::MAX, 0);
        let tiny = src(&[((3, 4), 1)], 1, 0);
        let m1 = merge_profiles(&[huge.clone(), tiny.clone()], &MergeOptions::default());
        let m2 = merge_profiles(&[tiny, huge], &MergeOptions::default());
        assert_eq!(m1, m2);
        // The dominant edge keeps (almost) all of the pinned total.
        assert!(m1.branches[&(1, 2)] >= u64::MAX - 2);
    }

    #[test]
    fn fallthroughs_conserve_independently() {
        let mut a = src(&[((1, 2), 10)], 2, 0);
        a.agg.fallthroughs.insert((2, 3), 6);
        let mut b = src(&[((1, 2), 1)], 9, 1);
        b.agg.fallthroughs.insert((2, 3), 4);
        b.agg.fallthroughs.insert((7, 8), 5);
        let m = merge_profiles(&[a, b], &MergeOptions::default());
        assert_eq!(m.total_branch_count(), 11);
        assert_eq!(m.total_fallthrough_count(), 15);
    }
}
