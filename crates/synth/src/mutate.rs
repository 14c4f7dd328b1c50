//! Seeded release-over-release program evolution.
//!
//! The fleet lifecycle (paper §2, §5) never relinks the same binary
//! twice: every release carries source churn — functions added and
//! deleted, blocks resized, branch behavior drifting as workloads
//! shift. [`evolve`] applies exactly that churn to a generated
//! benchmark, deterministically in `(seed, release)`, with one `drift`
//! knob scaling every mutation class. `drift == 0.0` returns an exact
//! clone, which is the control arm of the speedup-vs-staleness curve:
//! a release train with no churn must behave identically forever.
//!
//! Stored block frequencies (the compile-time PGO view) are left
//! untouched: real release churn changes *behavior* first and the
//! instrumented profile only catches up at the next FDO refresh, so the
//! gap between stored frequencies and true branch probabilities widens
//! with drift — exactly the staleness the post-link optimizer exists to
//! fix.

use crate::gen::GeneratedBenchmark;
use propeller_ir::{FunctionBuilder, Inst, Terminator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Evolution parameters for one release step.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DriftParams {
    /// Churn intensity in `[0, 1]`: scales the probability of every
    /// mutation class. `0.0` is a bit-identical clone.
    pub drift: f64,
    /// Fleet seed; combined with `release` so each step draws an
    /// independent deterministic stream.
    pub seed: u64,
    /// Release index this step produces (1 = first evolution of the
    /// freshly generated program).
    pub release: u32,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Evolves `bench` by one release of churn.
///
/// Mutation classes, each gated on `params.drift`:
///
/// * **Hotness drift** — conditional branch probabilities perturbed,
///   so the simulated behavior moves away from both the stored PGO
///   frequencies and any previously collected profile;
/// * **Block resize** — straight-line instructions appended to or
///   trimmed from block bodies (terminators and call sites intact, so
///   the CFG and call graph stay valid);
/// * **Function deletion** — a non-entry function's body collapses to
///   a single `ret` stub (the id and symbol survive, as callers still
///   reference them);
/// * **Function addition** — new cold functions appended to existing
///   modules under release-unique names, dirtying those modules'
///   fingerprints the way fresh code does.
///
/// Entry points and their dispatch weights are preserved: the workload
/// *mix* is held fixed so the curve isolates binary churn.
pub fn evolve(bench: &GeneratedBenchmark, params: &DriftParams) -> GeneratedBenchmark {
    let mut next = bench.clone();
    if params.drift <= 0.0 {
        return next;
    }
    let drift = params.drift.min(1.0);
    let mut rng = StdRng::seed_from_u64(params.seed ^ splitmix(params.release as u64));
    let entry_ids: Vec<_> = bench.entries.iter().map(|(id, _)| *id).collect();

    let p_branch = drift * 0.5;
    let p_resize = drift * 0.3;
    let p_delete = drift * 0.05;

    for module in next.program.modules_mut() {
        for f in &mut module.functions {
            if !entry_ids.contains(&f.id) && f.blocks.len() > 1 && rng.gen::<f64>() < p_delete {
                // Delete-as-stub: the symbol must survive (callers
                // still name it), but the body is gone: one empty,
                // cold `ret` block.
                f.edit_blocks(|b, body| {
                    body.clear();
                    b.term = Terminator::Ret;
                    b.is_landing_pad = false;
                    b.freq = 0;
                    b.id.index() == 0
                });
                continue;
            }
            f.edit_blocks(|b, body| {
                if let Terminator::CondBr { prob_taken, .. } = &mut b.term {
                    if rng.gen::<f64>() < p_branch {
                        let delta: f64 = rng.gen_range(-0.5..0.5) * drift;
                        *prob_taken = (*prob_taken + delta).clamp(0.001, 0.999);
                    }
                }
                if rng.gen::<f64>() < p_resize {
                    if rng.gen::<bool>() {
                        let extra = rng.gen_range(1..=4);
                        body.extend(std::iter::repeat_n(Inst::Alu, extra));
                    } else {
                        // Trim only trailing plain ALU ops so call
                        // sites (and thus the call graph) survive.
                        let mut trim = rng.gen_range(1..=4usize);
                        while trim > 0 && matches!(body.last(), Some(Inst::Alu)) {
                            body.pop();
                            trim -= 1;
                        }
                    }
                }
                true
            });
        }
    }

    // Fresh cold code: a few new functions per release, spread over
    // existing modules (dirtying their fingerprints like real churn).
    let n_new = ((next.program.num_functions() as f64) * drift * 0.03).round() as usize;
    let n_modules = next.program.num_modules();
    let mut name = String::new();
    for j in 0..n_new {
        name.clear();
        let _ = write!(name, "{}_r{}_new{j}", bench.spec.name, params.release);
        let mut fb = FunctionBuilder::new(name.as_str());
        let body = rng.gen_range(2..16);
        fb.add_block(vec![Inst::Alu; body], Terminator::Ret);
        let module = next.program.modules()[rng.gen_range(0..n_modules)].id;
        next.program.push_function(module, fb);
    }

    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};
    use crate::spec::spec_by_name;

    fn base() -> GeneratedBenchmark {
        let spec = spec_by_name("541.leela").unwrap();
        generate(
            &spec,
            &GenParams {
                scale: 0.05,
                seed: 11,
                funcs_per_module: 10,
                entry_points: 3,
            },
        )
    }

    fn stats_fingerprint(b: &GeneratedBenchmark) -> String {
        format!("{:?}", b.program.stats())
    }

    #[test]
    fn zero_drift_is_an_exact_clone() {
        let b = base();
        let e = evolve(
            &b,
            &DriftParams {
                drift: 0.0,
                seed: 99,
                release: 3,
            },
        );
        assert_eq!(stats_fingerprint(&b), stats_fingerprint(&e));
        for (f, g) in b.program.functions().zip(e.program.functions()) {
            assert_eq!(f.name, g.name);
            assert_eq!(f.blocks.len(), g.blocks.len());
        }
        assert_eq!(b.entries, e.entries);
    }

    #[test]
    fn evolution_is_deterministic_and_release_dependent() {
        let b = base();
        let p = DriftParams {
            drift: 0.4,
            seed: 7,
            release: 1,
        };
        let e1 = evolve(&b, &p);
        let e2 = evolve(&b, &p);
        assert_eq!(stats_fingerprint(&e1), stats_fingerprint(&e2));
        let other = evolve(&b, &DriftParams { release: 2, ..p });
        assert_ne!(stats_fingerprint(&e1), stats_fingerprint(&other));
    }

    #[test]
    fn evolved_programs_stay_valid_across_releases() {
        let mut cur = base();
        for release in 1..=5 {
            cur = evolve(
                &cur,
                &DriftParams {
                    drift: 0.8,
                    seed: 13,
                    release,
                },
            );
            cur.program.validate().unwrap();
        }
        // Churn actually happened: new functions accumulated.
        assert!(cur.program.num_functions() > base().program.num_functions());
    }

    #[test]
    fn entry_points_survive_heavy_drift() {
        let b = base();
        let e = evolve(
            &b,
            &DriftParams {
                drift: 1.0,
                seed: 5,
                release: 1,
            },
        );
        assert_eq!(b.entries, e.entries);
        // Only delete-as-stub changes a function's block count, and
        // entries are exempt from it.
        for (id, _) in &e.entries {
            assert_eq!(
                e.program.function(*id).unwrap().blocks.len(),
                b.program.function(*id).unwrap().blocks.len(),
                "entry {id:?} must never be stubbed out"
            );
        }
    }
}
