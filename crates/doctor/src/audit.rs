//! Profile-quality math: sample coverage, unmapped-address rate,
//! fall-through inference confidence, sample-capture ratio, and the
//! stale-profile skew score.
//!
//! Everything here is pure arithmetic over the same structures WPA
//! consumes ([`AddressMapper`], [`Dcfg`], [`AggregatedProfile`]), so
//! the audit measures exactly the inputs layout decisions were made
//! from — not a parallel reimplementation that could drift.

use propeller::Propeller;
use propeller_linker::LinkedBinary;
use propeller_profile::{AggregatedProfile, HardwareProfile};
use propeller_sim::{collect_profile, ProgramImage};
use propeller_wpa::{AddressMapper, Dcfg, WpaOptions};
use std::collections::BTreeMap;

/// What the profiling run *should* have produced, from the `perf stat`
/// view of the same execution: one sample every `period` taken
/// branches. The ratio of actual to expected samples is a robust
/// truncation detector — coverage alone can stay high on a dense
/// profile that lost half its samples.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ExpectedLoad {
    /// Taken branches retired during the profiled run.
    pub taken_branches: u64,
    /// Sampling period (taken branches per sample).
    pub period: u64,
}

/// The profile-quality audit of one run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ProfileAudit {
    /// Fraction of hot text bytes whose block received at least one
    /// mapped sample. Hot text is WPA's sampled-hot classification
    /// ([`WpaOptions::block_is_sampled_hot`] within functions passing
    /// [`WpaOptions::function_is_hot`]) of the *reference* profile (the
    /// audited profile itself by default). 1.0 when nothing qualified
    /// as hot.
    pub sample_coverage: f64,
    /// Hot text bytes with ≥ 1 mapped sample in the audited profile.
    pub covered_bytes: u64,
    /// Total hot text bytes.
    pub auditable_bytes: u64,
    /// `addr_unmapped / addr_lookups` — the sample mass silently dropped
    /// on the floor because no mapped block covered the address.
    pub unmapped_rate: f64,
    /// Sample-weighted address resolutions attempted.
    pub addr_lookups: u64,
    /// Of those, how many missed every mapped block.
    pub addr_unmapped: u64,
    /// Address-map functions the mapper skipped outright (no range
    /// symbol resolved).
    pub skipped_funcs: usize,
    /// Weighted fraction of aggregated fall-through ranges that are
    /// well-formed: ordered endpoints, both mapping, same function.
    pub fallthrough_confidence: f64,
    /// `num_samples / expected_samples` (1.0 when expectations are
    /// unknown). A truncated profile halves this exactly.
    pub sample_capture_ratio: f64,
    /// Samples actually present in the profile.
    pub num_samples: u64,
    /// Samples the counters say the run should have produced.
    pub expected_samples: u64,
    /// Stale-profile skew: total-variation distance between the PM
    /// profile's edge distribution and a re-simulated optimized-binary
    /// profile's (0 = behavior unchanged, 1 = disjoint). `None` until
    /// the optimized binary exists.
    pub skew: Option<f64>,
}

/// Audits `profile` against the metadata binary it was collected from,
/// measuring coverage against the hot text implied by `reference` (or
/// by `profile` itself when `None`).
///
/// `expected` enables the sample-capture ratio; pass `None` when the
/// `perf stat` counters of the profiled run are unavailable.
///
/// The split matters when grading a *degraded* collection: auditing a
/// truncated or stale profile against the hot text a trusted earlier
/// profile established reveals exactly which hot bytes the new profile
/// no longer witnesses. Self-referenced, the score instead measures how
/// much of the hot layout is evidence-backed rather than inferred
/// (forced-hot entry blocks that sampling never hit).
///
/// Hot text is always graded by sampled counts
/// ([`WpaOptions::function_is_hot`], [`WpaOptions::block_is_sampled_hot`]):
/// no `Program` reaches this function, so under
/// [`propeller_wpa::ColdSource::PgoFrequencies`] — where WPA splits by
/// the compile-time frequencies instead — the audited set is the
/// sampled-hot one, not the one the layout used.
pub fn audit_profile_with_reference(
    binary: &LinkedBinary,
    profile: &HardwareProfile,
    reference: Option<&HardwareProfile>,
    opts: &WpaOptions,
    expected: Option<ExpectedLoad>,
) -> ProfileAudit {
    let agg = AggregatedProfile::from_profile(profile);
    let mapper = AddressMapper::from_binary(binary);
    let dcfg = Dcfg::build(&mapper, &agg);
    let ref_dcfg = reference
        .map(|r| Dcfg::build(&mapper, &AggregatedProfile::from_profile(r)));
    let ref_dcfg = ref_dcfg.as_ref().unwrap_or(&dcfg);

    // Coverage: ask WPA's own hot tests which text bytes the reference
    // makes hot, then how many of those the audited profile actually
    // observed. Uncovered hot bytes are layout decisions made without
    // evidence.
    let mut covered_bytes = 0u64;
    let mut auditable_bytes = 0u64;
    let map = &binary.bb_addr_map;
    for fmap in &map.functions {
        let Some(fi) = mapper.func_index(&fmap.symbol) else {
            continue;
        };
        let rc = &ref_dcfg.functions[fi as usize];
        if !opts.function_is_hot(rc.total_count()) {
            continue;
        }
        let dc = &dcfg.functions[fi as usize];
        for r in map.ranges_of(fmap) {
            for e in map.entries_of(r) {
                let ref_count = rc.block_counts.get(&e.bb_id).copied().unwrap_or(0);
                if !opts.block_is_sampled_hot(e.bb_id, ref_count) {
                    continue;
                }
                auditable_bytes += e.size as u64;
                if dc.block_counts.get(&e.bb_id).copied().unwrap_or(0) > 0 {
                    covered_bytes += e.size as u64;
                }
            }
        }
    }
    let sample_coverage = if auditable_bytes == 0 {
        1.0
    } else {
        covered_bytes as f64 / auditable_bytes as f64
    };

    let unmapped_rate = if dcfg.addr_lookups == 0 {
        0.0
    } else {
        dcfg.addr_unmapped as f64 / dcfg.addr_lookups as f64
    };

    // Fall-through confidence: an LBR-derived range is trustworthy when
    // its endpoints are ordered, both resolve to mapped blocks, and the
    // run stayed within one function (straight-line execution cannot
    // cross function boundaries). Everything else was inferred from a
    // corrupt or foreign stack and contributes noise to block counts.
    let mut ft_total = 0u64;
    let mut ft_confident = 0u64;
    for (&(lo, hi), &w) in &agg.fallthroughs {
        ft_total += w;
        if hi < lo {
            continue;
        }
        let (Some((lf, _)), Some((hf, _))) = (mapper.lookup_idx(lo), mapper.lookup_idx(hi)) else {
            continue;
        };
        if lf == hf {
            ft_confident += w;
        }
    }
    let fallthrough_confidence = if ft_total == 0 {
        1.0
    } else {
        ft_confident as f64 / ft_total as f64
    };

    let num_samples = profile.samples.len() as u64;
    let expected_samples = expected
        .map(|e| e.taken_branches / e.period.max(1))
        .unwrap_or(0);
    let sample_capture_ratio = if expected_samples == 0 {
        1.0
    } else {
        num_samples as f64 / expected_samples as f64
    };

    ProfileAudit {
        sample_coverage,
        covered_bytes,
        auditable_bytes,
        unmapped_rate,
        addr_lookups: dcfg.addr_lookups,
        addr_unmapped: dcfg.addr_unmapped,
        skipped_funcs: mapper.num_skipped_functions(),
        fallthrough_confidence,
        sample_capture_ratio,
        num_samples,
        expected_samples,
        skew: None,
    }
}

/// The normalized intra-function edge-weight distribution of a profile
/// as seen through a binary's address map, keyed by
/// `(function symbol, src block, dst block)` and ignoring whether the
/// edge was observed as a branch or a fall-through.
///
/// Keying by block id (stable across relink) rather than address makes
/// distributions from *differently laid out* binaries comparable; and
/// edge *kinds* are ignored because the optimized layout deliberately
/// converts taken branches into fall-throughs.
///
/// Weights accumulate as exact integers in a sorted map so the
/// normalization (and thus the skew score) is bit-identical across runs
/// — the regression gate diffs these numbers at zero tolerance.
fn edge_distribution(
    binary: &LinkedBinary,
    agg: &AggregatedProfile,
) -> BTreeMap<(String, u32, u32), f64> {
    let mapper = AddressMapper::from_binary(binary);
    let dcfg = Dcfg::build(&mapper, agg);
    let mut weights: BTreeMap<(String, u32, u32), u64> = BTreeMap::new();
    for (fi, dc) in dcfg.functions.iter().enumerate() {
        let symbol = mapper.func_symbol(fi as u32);
        for (&(src, dst, _kind), &w) in &dc.edges {
            *weights.entry((symbol.to_string(), src, dst)).or_insert(0) += w;
        }
    }
    let total: u64 = weights.values().sum();
    weights
        .into_iter()
        .map(|(k, w)| {
            let p = if total > 0 {
                w as f64 / total as f64
            } else {
                0.0
            };
            (k, p)
        })
        .collect()
}

/// The stale-profile skew score: total-variation distance between the
/// edge distribution of the profile WPA consumed (collected on the
/// metadata binary) and a fresh profile of the optimized binary.
///
/// 0.0 means the program still behaves exactly as profiled; values near
/// 1.0 mean the layout was derived from behavior the binary no longer
/// exhibits (stale profile, workload drift). Both profiles are reduced
/// to `(function, src, dst)` block edges first, each through its own
/// binary's address map, so moved blocks compare as themselves. What
/// remains between the two binaries of one run is sampling: the same
/// walk on a new layout samples other branch windows, which scores
/// 0.04–0.31 on the measured programs (EXPERIMENTS.md).
///
/// The profiles come aggregated: the fleet release loop compares the
/// merged stale profile (collected on earlier releases, translated into
/// the current binary's address space) against the fresh distribution
/// of the current release, and by then only aggregated counts exist.
pub fn layout_skew(
    p_binary: &LinkedBinary,
    p_agg: &AggregatedProfile,
    q_binary: &LinkedBinary,
    q_agg: &AggregatedProfile,
) -> f64 {
    let p = edge_distribution(p_binary, p_agg);
    let q = edge_distribution(q_binary, q_agg);
    let mut dist = 0.0;
    for (k, pv) in &p {
        dist += (pv - q.get(k).copied().unwrap_or(0.0)).abs();
    }
    for (k, qv) in &q {
        if !p.contains_key(k) {
            dist += qv;
        }
    }
    dist / 2.0
}

/// Audits a completed pipeline: the Phase 3 profile against the PM
/// binary, with the capture ratio from the profiled run's counters,
/// plus — when Phase 4 ran — the skew score from re-simulating the
/// profiled workload on the optimized binary.
///
/// # Errors
///
/// Fails when Phase 3 has not run, or when the optimized binary's
/// simulator image cannot be constructed.
pub fn audit_pipeline(pipeline: &Propeller) -> Result<ProfileAudit, String> {
    let pm = pipeline.pm_binary().ok_or("phase 2 has not run")?;
    let profile = pipeline.profile().ok_or("phase 3 has not run")?;
    let opts = pipeline.options();
    let expected = pipeline.profiled_counters().map(|c| ExpectedLoad {
        taken_branches: c.taken_branches,
        period: opts.sampling.period,
    });
    let mut audit = audit_profile_with_reference(pm, profile, None, &opts.wpa, expected);
    if let (Some(po), Some(program)) = (pipeline.po_binary(), pipeline.phase4_program()) {
        let image =
            ProgramImage::build(program, &po.layout).map_err(|e| e.to_string())?;
        let (po_profile, _) = collect_profile(
            &image,
            &pipeline.workload(opts.profile_budget),
            &opts.uarch,
            opts.sampling,
        );
        let agg = AggregatedProfile::from_profile;
        audit.skew = Some(layout_skew(pm, &agg(profile), po, &agg(&po_profile)));
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_codegen::{codegen_module, CodegenOptions};
    use propeller_ir::{BlockId, FunctionBuilder, Inst, ProgramBuilder, Terminator};
    use propeller_linker::{link, LinkInput, LinkOptions};
    use propeller_profile::{LbrRecord, LbrSample};

    /// alpha: bb0 -> {bb1, bb2}; beta: bb0 -> ret.
    fn binary() -> LinkedBinary {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("alpha");
        f.add_block(
            vec![Inst::Alu; 3],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                prob_taken: 0.5,
            },
        );
        f.add_block(vec![Inst::Load], Terminator::Ret);
        f.add_block(vec![Inst::Load; 4], Terminator::Ret);
        pb.add_function(m, f);
        let mut g = FunctionBuilder::new("beta");
        g.add_block(vec![Inst::Store; 2], Terminator::Ret);
        pb.add_function(m, g);
        let p = pb.finish().unwrap();
        let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        link(
            &[LinkInput::new(r.object, r.debug_layout)],
            &LinkOptions::default(),
        )
        .unwrap()
    }

    fn block_addr(bin: &LinkedBinary, func: &str, block: u32) -> u64 {
        bin.layout
            .functions
            .iter()
            .find(|f| &*f.func_symbol == func)
            .unwrap()
            .blocks
            .iter()
            .find(|b| b.block == BlockId(block))
            .unwrap()
            .addr
    }

    fn loose_opts() -> WpaOptions {
        WpaOptions {
            min_function_samples: 1,
            ..WpaOptions::default()
        }
    }

    /// A profile exercising alpha's bb0 -> bb1 edge `n` times.
    fn alpha_profile(bin: &LinkedBinary, n: usize) -> HardwareProfile {
        let b0 = block_addr(bin, "alpha", 0);
        let b1 = block_addr(bin, "alpha", 1);
        let mut prof = HardwareProfile::new("t");
        for _ in 0..n {
            prof.samples.push(LbrSample::new(vec![
                LbrRecord { from: b0 + 2, to: b1 },
                LbrRecord { from: b1 + 1, to: b0 },
            ]));
        }
        prof
    }

    #[test]
    fn self_audit_covers_its_own_hot_text() {
        let bin = binary();
        let prof = alpha_profile(&bin, 4);
        let audit = audit_profile_with_reference(&bin, &prof, None, &loose_opts(), None);
        // alpha is hot but bb2 (4 loads) was never sampled, so it is
        // not hot text; beta is wholly cold. Every hot block has the
        // sample that made it hot, so self-coverage is complete.
        assert!(audit.auditable_bytes > 0);
        assert_eq!(audit.covered_bytes, audit.auditable_bytes);
        assert_eq!(audit.sample_coverage, 1.0);
        assert_eq!(audit.unmapped_rate, 0.0);
        assert_eq!(audit.skipped_funcs, 0);
    }

    #[test]
    fn reference_profile_exposes_lost_hot_bytes() {
        let bin = binary();
        let b0 = block_addr(&bin, "alpha", 0);
        let b2 = block_addr(&bin, "alpha", 2);
        // The reference run saw both sides of alpha's branch...
        let mut reference = alpha_profile(&bin, 4);
        for _ in 0..4 {
            reference.samples.push(LbrSample::new(vec![
                LbrRecord { from: b0 + 2, to: b2 },
                LbrRecord { from: b2 + 3, to: b0 },
            ]));
        }
        // ...but the audited (degraded) collection only witnessed bb1.
        let degraded = alpha_profile(&bin, 4);
        let full = audit_profile_with_reference(
            &bin,
            &reference,
            Some(&reference),
            &loose_opts(),
            None,
        );
        assert_eq!(full.sample_coverage, 1.0);
        let audit = audit_profile_with_reference(
            &bin,
            &degraded,
            Some(&reference),
            &loose_opts(),
            None,
        );
        assert!(audit.auditable_bytes > audit.covered_bytes);
        assert!(
            audit.sample_coverage > 0.0 && audit.sample_coverage < 1.0,
            "bb2 is reference-hot but unsampled, got {}",
            audit.sample_coverage
        );
        assert!(
            (audit.sample_coverage
                - audit.covered_bytes as f64 / audit.auditable_bytes as f64)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn cold_program_is_vacuously_covered() {
        let bin = binary();
        let empty = HardwareProfile::new("t");
        let audit = audit_profile_with_reference(&bin, &empty, None, &loose_opts(), None);
        assert_eq!(audit.auditable_bytes, 0);
        assert_eq!(audit.sample_coverage, 1.0);
        assert_eq!(audit.addr_lookups, 0);
    }

    #[test]
    fn bogus_addresses_raise_the_unmapped_rate() {
        let bin = binary();
        let mut prof = alpha_profile(&bin, 2);
        for _ in 0..6 {
            prof.samples.push(LbrSample::new(vec![LbrRecord {
                from: 0xdead_0000,
                to: 0xbeef_0000,
            }]));
        }
        let audit = audit_profile_with_reference(&bin, &prof, None, &loose_opts(), None);
        assert!(audit.addr_unmapped > 0);
        assert!(audit.unmapped_rate > 0.0 && audit.unmapped_rate < 1.0);
        assert_eq!(
            audit.unmapped_rate,
            audit.addr_unmapped as f64 / audit.addr_lookups as f64
        );
    }

    #[test]
    fn capture_ratio_halves_when_half_the_samples_drop() {
        let bin = binary();
        let full = alpha_profile(&bin, 10);
        let expected = Some(ExpectedLoad {
            taken_branches: 100,
            period: 10,
        });
        let a = audit_profile_with_reference(&bin, &full, None, &loose_opts(), expected);
        assert_eq!(a.expected_samples, 10);
        assert!((a.sample_capture_ratio - 1.0).abs() < 1e-12);
        let mut truncated = full.clone();
        truncated.samples.truncate(5);
        let b = audit_profile_with_reference(&bin, &truncated, None, &loose_opts(), expected);
        assert!((b.sample_capture_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fallthrough_confidence_penalizes_malformed_ranges() {
        let bin = binary();
        let b0 = block_addr(&bin, "alpha", 0);
        let b1 = block_addr(&bin, "alpha", 1);
        let mut prof = HardwareProfile::new("t");
        // Well-formed: lands at bb0, runs to bb1, within alpha.
        prof.samples.push(LbrSample::new(vec![
            LbrRecord { from: b1 + 100, to: b0 },
            LbrRecord { from: b1, to: b0 },
        ]));
        // Malformed: inverted range (hi < lo).
        prof.samples.push(LbrSample::new(vec![
            LbrRecord { from: b0, to: b1 },
            LbrRecord { from: b0, to: b1 },
        ]));
        let audit = audit_profile_with_reference(&bin, &prof, None, &loose_opts(), None);
        assert!((audit.fallthrough_confidence - 0.5).abs() < 1e-12);
    }

    #[test]
    fn skew_is_zero_for_identical_behavior_and_positive_for_drift() {
        let bin = binary();
        let prof = alpha_profile(&bin, 8);
        let agg = AggregatedProfile::from_profile;
        assert_eq!(layout_skew(&bin, &agg(&prof), &bin, &agg(&prof)), 0.0);
        // Drifted behavior: the same binary, but execution now goes
        // bb0 -> bb2 instead of bb0 -> bb1.
        let b0 = block_addr(&bin, "alpha", 0);
        let b2 = block_addr(&bin, "alpha", 2);
        let mut drifted = HardwareProfile::new("t");
        for _ in 0..8 {
            drifted.samples.push(LbrSample::new(vec![
                LbrRecord { from: b0 + 2, to: b2 },
                LbrRecord { from: b2 + 1, to: b0 },
            ]));
        }
        let skew = layout_skew(&bin, &agg(&prof), &bin, &agg(&drifted));
        assert!(skew > 0.5, "disjoint edge sets should skew hard, got {skew}");
        assert!(skew <= 1.0);
    }
}
