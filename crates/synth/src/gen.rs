//! Program generation.

use crate::spec::{BenchKind, BenchmarkSpec};
use propeller_ir::{
    propagate_frequencies, BlockId, FunctionBuilder, FunctionId, Inst, Program, ProgramBuilder,
    Terminator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Generation parameters beyond the spec itself.
#[derive(Clone, PartialEq, Debug)]
pub struct GenParams {
    /// Scale factor on function/block counts (1.0 = Table 2 size).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Functions per translation unit.
    pub funcs_per_module: usize,
    /// Number of workload entry-point functions.
    pub entry_points: usize,
}

impl GenParams {
    /// Parameters using the spec's default scale.
    pub fn for_spec(spec: &BenchmarkSpec) -> Self {
        GenParams {
            scale: spec.default_scale,
            seed: 0xB0B0 ^ spec.name.len() as u64,
            funcs_per_module: 12,
            entry_points: 4,
        }
    }
}

/// A generated benchmark: the program plus its workload roots.
#[derive(Clone, Debug)]
pub struct GeneratedBenchmark {
    /// The spec this was generated from.
    pub spec: BenchmarkSpec,
    /// The program.
    pub program: Program,
    /// Workload entry functions with dispatch weights.
    pub entries: Vec<(FunctionId, f64)>,
    /// The scale that was applied (memory/time figures extrapolate by
    /// `1 / scale`).
    pub scale: f64,
}

/// Draws from a geometric-ish distribution with the given mean,
/// clamped to `[1, cap]`.
fn geometric(rng: &mut StdRng, mean: f64, cap: usize) -> usize {
    let mean = mean.max(1.0);
    let p = 1.0 / mean;
    let u: f64 = rng.gen_range(1e-12..1.0);
    let k = 1.0 + (u.ln() / (1.0 - p).max(1e-12).ln()).floor();
    (k as usize).clamp(1, cap)
}

/// Generates a program matching `spec` at `params.scale`.
///
/// Deterministic in `params.seed`.
///
/// # Panics
///
/// Panics if the spec/params produce fewer than two functions.
pub fn generate(spec: &BenchmarkSpec, params: &GenParams) -> GeneratedBenchmark {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n_funcs = ((spec.funcs as f64 * params.scale).round() as usize).max(8);
    let n_hot = ((n_funcs as f64 * spec.hot_function_fraction).round() as usize)
        .clamp(params.entry_points.max(2), n_funcs);
    let avg_blocks = spec.blocks_per_function();
    // Average encoded bytes per straight instruction is ~3.4; each
    // block also spends a few bytes on its terminator.
    let insts_per_block = ((spec.bytes_per_block() - 2.5) / 3.4).max(1.0);

    let n_modules = n_funcs.div_ceil(params.funcs_per_module).max(2);
    // Table 2's "% Cold" is a fraction of *object files*: spread hot
    // functions over exactly the non-cold share of modules (cold
    // functions go everywhere), so the generated cold-object fraction
    // matches the spec.
    let hot_modules = (((1.0 - spec.cold_object_fraction) * n_modules as f64).round() as usize)
        .clamp(1, n_modules);
    let mut pb = ProgramBuilder::new();
    let modules: Vec<_> = (0..n_modules)
        .map(|m| pb.add_module(format!("{}_{m}.cc", spec.name)))
        .collect();

    // Function `i` gets FunctionId(i): hot functions first, so callee
    // selection can stay within the hot set by index. Each name is
    // formatted in `name` and then allocated once; terminators are
    // planned in `plans`, and each block body is drawn into `body` and
    // then appended to its function's one array.
    let mut name = String::new();
    let mut plans: Vec<Terminator> = Vec::new();
    let mut body = Vec::new();
    for i in 0..n_funcs {
        let hot = i < n_hot;
        let module = if hot {
            modules[i % hot_modules]
        } else {
            modules[(i - n_hot) % n_modules]
        };
        name.clear();
        let _ = write!(name, "{}_fn{i}", spec.name);
        let nblocks = geometric(&mut rng, avg_blocks, 400);
        // Room for half again the expected body, so the array rarely
        // grows; finishing the function trims it to its length.
        let expected_insts = nblocks as f64 * insts_per_block;
        let mut fb =
            FunctionBuilder::with_capacity(name.as_str(), nblocks, (expected_insts * 1.5) as usize);

        // Pass 1: plan terminators.
        plans.clear();
        for b in 0..nblocks {
            let last = b == nblocks - 1;
            let term = if last {
                Terminator::Ret
            } else {
                let r: f64 = rng.gen();
                if r < 0.12 && b > 1 {
                    // Loop back edge.
                    let back = rng.gen_range(b.saturating_sub(8)..b);
                    Terminator::CondBr {
                        taken: BlockId(back as u32),
                        fallthrough: BlockId(b as u32 + 1),
                        prob_taken: rng.gen_range(0.55..0.92),
                    }
                } else if r < 0.55 {
                    // Forward branch. Three flavors:
                    //  - biased-not-taken: the compile-time layout is
                    //    already right (hot path falls through);
                    //  - biased-TAKEN: a *profile mismatch* — the hot
                    //    successor is the jump target, i.e. the layout
                    //    PGO produced is stale or heuristic. This is
                    //    the headroom post-link optimizers exploit
                    //    (§2.4: "post link profiles fix inaccuracies
                    //    accrued ... as optimizations transform the
                    //    source");
                    //  - genuinely mixed.
                    let target = rng.gen_range(b + 1..nblocks);
                    let flavor: f64 = rng.gen();
                    let p = if flavor < 0.55 {
                        rng.gen_range(0.004..0.10)
                    } else if flavor < 0.85 {
                        rng.gen_range(0.90..0.996)
                    } else {
                        rng.gen_range(0.3..0.6)
                    };
                    Terminator::CondBr {
                        taken: BlockId(target as u32),
                        fallthrough: BlockId(b as u32 + 1),
                        prob_taken: p,
                    }
                } else if r < 0.60 {
                    Terminator::Ret
                } else {
                    Terminator::Jump(BlockId(b as u32 + 1))
                }
            };
            plans.push(term);
        }
        // Pass 2: for mismatch branches (hot side taken), make the
        // target reachable *only* through the taken edge: the straight-
        // line path in front of it jumps past it. This is the classic
        // stale-profile shape — the compiler believes the target is
        // dead, while at run time it is the hot continuation.
        for b in 0..nblocks {
            if let Terminator::CondBr {
                taken, prob_taken, ..
            } = plans[b]
            {
                let j = taken.index();
                if prob_taken > 0.85 && j > b + 1 && j + 1 < nblocks && j >= 1 && j - 1 != b {
                    plans[j - 1] = Terminator::Jump(BlockId(j as u32 + 1));
                }
            }
        }

        // Pass 3: build the blocks.
        for (b, &term) in plans.iter().enumerate() {
            body.clear();
            let body_len = geometric(&mut rng, insts_per_block, 60);
            for _ in 0..body_len {
                let r: f64 = rng.gen();
                body.push(if r < 0.60 {
                    Inst::Alu
                } else if r < 0.85 {
                    Inst::Load
                } else {
                    Inst::Store
                });
            }
            // Call sites: hot functions mostly call hot functions
            // (forming the hot trunk of the call graph); cold call
            // anything.
            if rng.gen::<f64>() < 0.22 && n_funcs > 2 {
                let callee = if hot {
                    // Nearby hot callee.
                    let span = n_hot.max(2);
                    (i + 1 + rng.gen_range(0..span.max(1))) % span.max(1)
                } else {
                    rng.gen_range(0..n_funcs)
                };
                if callee != i {
                    let pos = if body.is_empty() {
                        0
                    } else {
                        rng.gen_range(0..=body.len())
                    };
                    body.insert(pos, Inst::Call(FunctionId(callee as u32)));
                }
            }
            let bid = fb.add_block(body.drain(..), term);
            // Occasional landing pads in exception-using codebases.
            if spec.kind != BenchKind::Spec2017 && b > 0 && rng.gen::<f64>() < 0.01 {
                fb.set_landing_pad(bid);
            }
        }
        let fid = pb.add_function(module, fb);
        debug_assert_eq!(fid, FunctionId(i as u32));
    }

    let mut program = pb.finish_unchecked();

    // Frequencies: Zipf-weighted entry counts for hot functions
    // (identified by id; functions are interleaved across modules).
    //
    // The stored frequencies model the *compile-time PGO profile*,
    // which in production is stale by the time the binary ships (§2.2:
    // "code transformations can cause a mismatch between the profile
    // data and the code being optimized"). The mismatch branches the
    // generator creates (hot side on the taken edge) are exactly the
    // ones whose PGO view is wrong: the compiler believed they were
    // never taken. Frequencies are therefore propagated through a
    // *distorted* CFG where those branches have probability zero,
    // while the simulator executes the true probabilities.
    for module in program.modules_mut() {
        for f in &mut module.functions {
            let id = f.id.index();
            if id < n_hot {
                let entry_freq = (1_000_000.0 / (id as f64 + 1.0)).round() as u64;
                propagate_frequencies(f, entry_freq, |p| if p > 0.85 { 0.0 } else { p });
            }
        }
    }

    let entries: Vec<(FunctionId, f64)> = (0..params.entry_points.min(n_hot))
        .map(|i| (FunctionId(i as u32), 1.0 / (i as f64 + 1.0)))
        .collect();

    GeneratedBenchmark {
        spec: spec.clone(),
        program,
        entries,
        scale: params.scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{all_specs, spec_by_name};

    fn small_params(seed: u64, scale: f64) -> GenParams {
        GenParams {
            scale,
            seed,
            funcs_per_module: 10,
            entry_points: 3,
        }
    }

    #[test]
    fn generated_programs_validate() {
        for spec in all_specs().iter().take(3) {
            let g = generate(
                spec,
                &small_params(1, f64::max(0.002, spec.default_scale / 8.0)),
            );
            g.program.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = spec_by_name("541.leela").unwrap();
        let a = generate(&spec, &small_params(7, 1.0));
        let b = generate(&spec, &small_params(7, 1.0));
        assert_eq!(a.program.stats(), b.program.stats());
        let c = generate(&spec, &small_params(8, 1.0));
        assert_ne!(a.program.stats(), c.program.stats());
    }

    #[test]
    fn characteristics_track_spec() {
        let spec = spec_by_name("505.mcf").unwrap();
        let g = generate(&spec, &small_params(3, 1.0));
        let stats = g.program.stats();
        let funcs = stats.num_functions as f64;
        assert!(
            (funcs - spec.funcs as f64).abs() / spec.funcs as f64 <= 0.15,
            "funcs {funcs} vs {}",
            spec.funcs
        );
        let blocks = stats.num_blocks as f64;
        assert!(
            (blocks - spec.blocks as f64).abs() / spec.blocks as f64 <= 0.50,
            "blocks {blocks} vs {}",
            spec.blocks
        );
        // Hot/cold split respected.
        assert!(stats.num_cold_functions > 0);
        assert!(stats.num_cold_functions < stats.num_functions);
        // Entries are hot.
        for (e, w) in &g.entries {
            assert!(*w > 0.0);
            assert!(!g.program.function(*e).unwrap().is_cold());
        }
    }

    #[test]
    fn cold_module_fraction_roughly_matches() {
        let spec = spec_by_name("mysql").unwrap(); // 93% cold objects
        let g = generate(&spec, &small_params(5, 0.01));
        let frac = g.program.stats().cold_module_fraction();
        assert!(
            (frac - spec.cold_object_fraction).abs() < 0.15,
            "cold module fraction {frac} vs {}",
            spec.cold_object_fraction
        );
    }

    #[test]
    fn scale_shrinks_program() {
        let spec = spec_by_name("502.gcc").unwrap();
        let small = generate(&spec, &small_params(2, 0.05));
        let large = generate(&spec, &small_params(2, 0.2));
        assert!(large.program.stats().num_blocks > 2 * small.program.stats().num_blocks);
    }
}
