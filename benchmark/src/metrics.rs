//! The metric tables: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` is printed from these tables
//! (`--print-manifest`), so the manifest and the output cannot drift.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: true,
        bound: 0.0,
    }
}

/// What a user of the system sees. `fail_share` is reported next to
/// these (and as `failed`/`attempted`) but is not a bounded metric: it
/// is 0 on every run, and a bound is a share of the parent's median.
pub const END_TO_END: &[Metric] = &[
    // The timing bounds are the contract's cap, not the 5 % / 10 % the
    // issue asked for: on the shared 2-core reference container the
    // same binary's p50 drifts by 10–20 % within minutes (README.md,
    // "Noise"), and a bound must hold three times the spread seen.
    e2e("wall_s_p50", "s", false, 0.25),
    e2e("wall_s_p75", "s", false, 0.25),
    e2e("kblocks_per_s", "kblocks/s", true, 0.25),
    e2e("peak_heap_mib", "MiB", false, 0.05),
    e2e("alloc_mib_per_op", "MiB", false, 0.02),
    e2e("kallocs_per_op", "kallocs", false, 0.02),
    // Exact on pinned inputs: 0.3 % of ~3 % is the 0.01 point the
    // issue allows, and 1e-6 of the text is a handful of bytes.
    e2e("speedup_pct", "%", true, 0.003),
    e2e("text_kib", "KiB", false, 0.000001),
    e2e("setup_s", "s", false, 0.25),
];

/// Single layers, named after the crate they time. A name ending in
/// `_s` whose stem is a span name is the total of those spans in one
/// traced op; every value is the median over the traced ops.
pub const PER_LAYER: &[Metric] = &[
    lower("synth.generate_s", "s"),
    lower("synth.evolve_s", "s"),
    lower("synth.blocks", "count"),
    lower("codegen.pm_s", "s"),
    lower("codegen.po_s", "s"),
    lower("codegen.base_s", "s"),
    lower("codegen.modules", "count"),
    lower("codegen.obj_kib", "KiB"),
    lower("linker.pm_link_s", "s"),
    lower("linker.po_link_s", "s"),
    lower("linker.base_link_s", "s"),
    lower("linker.input_kib", "KiB"),
    higher("linker.shrunk_branches", "count"),
    higher("linker.deleted_jumps", "count"),
    lower("linker.text_kib", "KiB"),
    lower("sim.image_build_s", "s"),
    lower("sim.profile_s", "s"),
    lower("sim.eval_s", "s"),
    higher("sim.mblocks_per_s", "Mblocks/s"),
    lower("profile.aggregate_s", "s"),
    lower("profile.merge_s", "s"),
    lower("profile.lbr_records", "count"),
    lower("wpa.run_s", "s"),
    lower("wpa.mapper_s", "s"),
    lower("wpa.dcfg_s", "s"),
    lower("wpa.layout_self_s", "s"),
    lower("wpa.hot_blocks", "count"),
    lower("wpa.hot_functions", "count"),
    lower("wpa.dcfg_edges", "count"),
    lower("wpa.us_per_hot_block", "us"),
    lower("buildsys.obj_lookups", "count"),
    higher("buildsys.obj_hit_ratio", "ratio"),
    higher("buildsys.ir_hit_ratio", "ratio"),
    higher("buildsys.pool_busy_share", "ratio"),
    lower("core.new_s", "s"),
    lower("core.phase1_s", "s"),
    lower("core.phase2_s", "s"),
    lower("core.phase3_s", "s"),
    lower("core.phase4_s", "s"),
    lower("core.baseline_s", "s"),
    lower("core.evaluate_s", "s"),
    lower("core.self_s", "s"),
    lower("fleet.run_s", "s"),
    lower("fleet.releases", "count"),
    lower("fleet.relinks", "count"),
    higher("fleet.reuses", "count"),
    higher("fleet.cache_hit_ratio", "ratio"),
    lower("fleet.s_per_release", "s"),
    lower("serve.new_s", "s"),
    lower("serve.run_s", "s"),
    higher("serve.jobs_completed", "count"),
    lower("serve.retries", "count"),
    lower("serve.us_per_job", "us"),
    lower("serve.batch_equiv_s", "s"),
    lower("serve.batch_work_est_s", "s"),
    lower("serve.sched_self_s", "s"),
    lower("doctor.audit_s", "s"),
    lower("trace.base_s", "s"),
    lower("trace.overhead_pct", "%"),
    higher("trace.coverage_pct", "%"),
    lower("telemetry.unarmed_base_s", "s"),
    lower("telemetry.armed_overhead_pct", "%"),
    lower("provenance.unarmed_base_s", "s"),
    lower("provenance.armed_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn charset(s: &str, extra: &str) -> bool {
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// The limits `BENCHMARK.json` is refused for before a single run.
    #[test]
    fn tables_meet_the_manifest_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.name.len() <= 64 && charset(m.name, "_.-"), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && charset(m.unit, "_/%.-"),
                "{}",
                m.unit
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
    }
}
