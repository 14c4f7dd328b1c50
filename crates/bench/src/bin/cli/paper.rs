//! The paper's evaluation (§5), one row per artifact: `table2`,
//! `table3`, `table5`, `fig4`–`fig9`, `spec-table` and the three
//! ablations. Each row covers the benchmarks given as positionals, or
//! the paper's own list without any; `--scale MULT` multiplies every
//! spec's default scale. Memory and time figures are extrapolated from
//! the evaluation scale back to Table 2 scale (they are linear in
//! program size).

use super::error::require;
use super::{CliError, Parsed};
use propeller::{GlobalOrder, IntraOrder, PipelineError, SamplingConfig, WpaOptions};
use propeller_bench::runner::{
    generate_at, run_variants, scaled, OptionsPatch, VariantRun, DEFAULT_BENCHMARKS,
    SPEC_BENCHMARKS,
};
use propeller_bench::table::{human_bytes, minutes};
use propeller_bench::{run_benchmark, RunConfig, Table};
use propeller_buildsys::GIB;
use propeller_linker::FinalLayout;
use propeller_obj::SizeBreakdown;
use propeller_sim::{CounterSet, Event, SimOptions, UarchConfig};
use propeller_synth::{all_specs, BenchmarkSpec, GenParams};
use propeller_wpa::ColdSource;
use std::process::ExitCode;

/// The fourteen benchmarks of Table 2, in the paper's order.
fn all_benchmarks() -> Vec<&'static str> {
    [&DEFAULT_BENCHMARKS[..], &SPEC_BENCHMARKS[..]].concat()
}

/// `run` on each benchmark the row covers, in order, reporting progress
/// on stderr. Every name resolves before the first run starts.
fn runs_on<'a, T>(
    p: &'a Parsed,
    paper: &[&str],
    run: impl Fn(&BenchmarkSpec, &RunConfig) -> Result<T, PipelineError> + 'a,
) -> Result<impl Iterator<Item = Result<T, CliError>> + 'a, CliError> {
    let cfg = p.run_config(false);
    Ok(p.benches(paper)?.into_iter().map(move |spec| {
        let out = run(&spec, &cfg)?;
        eprintln!("[{}] {} done", p.cmd, spec.name);
        Ok(out)
    }))
}

/// Prints a titled table and its trailing paper-comparison note.
fn print_table(title: &str, t: &Table, paper_note: &str) -> Result<ExitCode, CliError> {
    println!("{title}\n");
    println!("{}", t.render());
    println!("{paper_note}");
    Ok(ExitCode::SUCCESS)
}

/// Table 2 — benchmark characteristics: the full-scale spec targets
/// (the paper's numbers) next to the generated program's, so the
/// fidelity of the generator is visible.
pub fn table2(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&[
        "Benchmark",
        "Text (paper)",
        "#Funcs (paper)",
        "#BBs (paper)",
        "%Cold (paper)",
        "scale",
        "#Funcs (gen)",
        "#BBs (gen)",
        "%Cold objs (gen)",
    ]);
    let names: Vec<&str> = all_specs().iter().map(|spec| spec.name).collect();
    for spec in p.benches(&names)? {
        let scale = scaled(&spec, p.program.scale.unwrap_or(1.0));
        // Without --seed each spec keeps the generator's own seed for it.
        let seed = p.program.seed.unwrap_or(GenParams::for_spec(&spec).seed);
        let s = generate_at(&spec, scale, seed).program.stats();
        t.row(vec![
            spec.name.to_string(),
            human_bytes(spec.text_bytes),
            format!("{}", spec.funcs),
            format!("{}", spec.blocks),
            format!("{:.0}%", spec.cold_object_fraction * 100.0),
            format!("{scale:.4}"),
            format!("{}", s.num_functions),
            format!("{}", s.num_blocks),
            format!("{:.0}%", s.cold_module_fraction() * 100.0),
        ]);
    }
    println!("Table 2: benchmark characteristics (paper targets vs generated)\n");
    println!("{}", t.render());
    Ok(ExitCode::SUCCESS)
}

/// Table 3 — performance of Propeller- and BOLT-optimized binaries over
/// PGO+ThinLTO. BOLT rows show "Crash" for the binaries whose rewriting
/// corrupts integrity-checked code (§5.8).
pub fn table3(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&["Benchmark", "Metric", "Propeller", "BOLT (lite=0)"]);
    for a in runs_on(p, &DEFAULT_BENCHMARKS, run_benchmark)? {
        let a = a?;
        let prop = a.prop_counters.speedup_pct_over(&a.base_counters);
        let bolt = match (&a.bolt, &a.bolt_counters) {
            (_, Some(c)) => format!("{:+.1}%", c.speedup_pct_over(&a.base_counters)),
            (Ok(_), None) => "Crash".to_string(),
            (Err(e), None) => format!("Error: {e}"),
        };
        t.row(vec![
            a.spec.name.to_string(),
            a.spec.metric.to_string(),
            format!("{prop:+.1}%"),
            bolt,
        ]);
    }
    print_table(
        "Table 3: performance improvements over PGO+ThinLTO baseline",
        &t,
        "(paper: clang +7.3/+7.3, mysql +1/+0.8, spanner +7/Crash, search +3/+4, superroot \
         +1.1/Crash, bigtable +3/Crash)",
    )
}

/// Modeled representative-load duration (seconds). The two "Profile"
/// columns of Table 5 are load-test durations — a property of the
/// serving environment, not of the optimizer (the paper's range is
/// 8-48 minutes); everything else comes from the cost model at full
/// scale.
const LOAD_TEST_SECS: f64 = 20.0 * 60.0;

/// Table 5 — build phases of warehouse-scale applications: the PGO
/// pipeline's instrumented build, profiling run and optimized build,
/// then Propeller's profiling run, conversion and relink.
pub fn table5(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&[
        "Benchmark",
        "PGO Instr.",
        "PGO Profile",
        "PGO Opt.",
        "Prop Profile",
        "Prop Convert",
        "Prop Opt.",
        "Prop share of total",
    ]);
    let warehouse_scale = ["spanner", "search", "superroot", "bigtable"];
    for a in runs_on(p, &warehouse_scale, run_benchmark)? {
        let a = a?;
        let ft = a.full_scale_times()?;
        let instr_build = ft.compile_frontend + ft.backends_all + ft.link;
        let opt_build = ft.backends_all + ft.link;
        let convert = ft.convert + ft.wpa;
        let prop_opt = ft.backends_hot + ft.relink;
        let total = instr_build + LOAD_TEST_SECS + opt_build + LOAD_TEST_SECS + convert + prop_opt;
        let prop_share = (convert + prop_opt) / total;
        t.row(vec![
            a.spec.name.to_string(),
            minutes(instr_build),
            minutes(LOAD_TEST_SECS),
            minutes(opt_build),
            minutes(LOAD_TEST_SECS),
            minutes(convert),
            minutes(prop_opt),
            format!("{:.0}%", prop_share * 100.0),
        ]);
    }
    print_table(
        "Table 5: build phases for warehouse-scale applications (modeled minutes at full scale)",
        &t,
        "(paper: Propeller's own phases are ~18% of the whole build-release time)",
    )
}

/// Figure 4 — peak memory of profile conversion + whole-program
/// analysis: Propeller's Phase 3 vs BOLT's `perf2bolt`, against the
/// distributed build's per-action limit.
pub fn fig4(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&[
        "Benchmark",
        "Propeller P3 (full-scale)",
        "BOLT perf2bolt (full-scale)",
        "ratio",
        "fits 12G action?",
    ]);
    for a in runs_on(p, &all_benchmarks(), run_benchmark)? {
        let a = a?;
        let limit = a.spec.action_ram_gib * GIB;
        let prop = a.full_scale(a.report.wpa.modeled_peak_memory);
        let bolt = a
            .bolt
            .as_ref()
            .map_or(0, |o| a.full_scale(o.stats.profile_conversion_peak_memory));
        t.row(vec![
            a.spec.name.to_string(),
            human_bytes(prop),
            human_bytes(bolt),
            format!("{:.1}x", bolt as f64 / prop.max(1) as f64),
            format!("propeller={} bolt={}", prop <= limit, bolt <= limit),
        ]);
    }
    print_table(
        "Figure 4: peak memory, profile conversion + WPA (extrapolated to full scale)",
        &t,
        "(paper: Propeller <= 2.6 GB everywhere; BOLT 24-73 GB on warehouse-scale apps, \
         comparable on small SPEC)",
    )
}

/// Figure 5 — peak memory of the Phase 4 relink vs BOLT's optimize step
/// vs the baseline link action.
pub fn fig5(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&[
        "Benchmark",
        "Baseline link",
        "Propeller relink (P4)",
        "BOLT optimize",
        "BOLT/link",
    ]);
    for a in runs_on(p, &all_benchmarks(), run_benchmark)? {
        let a = a?;
        let base_link = a.full_scale(a.baseline.stats.modeled_peak_memory);
        let relink = a.full_scale(a.po()?.stats.modeled_peak_memory);
        let bolt = a
            .bolt
            .as_ref()
            .map_or(0, |o| a.full_scale(o.stats.optimize_peak_memory));
        t.row(vec![
            a.spec.name.to_string(),
            human_bytes(base_link),
            human_bytes(relink),
            human_bytes(bolt),
            format!("{:.1}x", bolt as f64 / base_link.max(1) as f64),
        ]);
    }
    print_table(
        "Figure 5: peak memory, Phase 4 relink vs BOLT optimize vs baseline link (full scale)",
        &t,
        "(paper: Propeller relink ~= baseline link; BOLT up to 5x baseline link)",
    )
}

/// Figure 6 — section sizes of the five binaries, normalized to the
/// Base total: Base (PGO+ThinLTO), PM (Propeller metadata), PO
/// (Propeller optimized), BM (BOLT metadata = retained relocations), BO
/// (BOLT optimized).
pub fn fig6(p: &Parsed) -> Result<ExitCode, CliError> {
    fn pct(v: usize, base: usize) -> String {
        format!("{:.0}%", v as f64 * 100.0 / base as f64)
    }
    fn row_of(name: &str, b: &SizeBreakdown, base_total: usize) -> Vec<String> {
        let SizeBreakdown {
            text,
            eh_frame,
            bb_addr_map,
            relocs,
            other,
        } = *b;
        let parts = [text, eh_frame, bb_addr_map, relocs, other, b.total()];
        let mut row = vec![name.to_string()];
        row.extend(parts.map(|part| pct(part, base_total)));
        row
    }
    for a in runs_on(p, &all_benchmarks(), run_benchmark)? {
        let a = a?;
        let total = a.baseline.size_breakdown.total();
        let mut t = Table::new(&[
            "binary",
            "text",
            "eh_frame",
            "bb_addr_map",
            "relocs",
            "other",
            "total",
        ]);
        t.row(row_of("Base", &a.baseline.size_breakdown, total));
        t.row(row_of("PM", &a.pm()?.size_breakdown, total));
        t.row(row_of("PO", &a.po()?.size_breakdown, total));
        t.row(row_of("BM", &a.bm.size_breakdown, total));
        if let Ok(bolt) = &a.bolt {
            // The 2 MiB hugepage alignment padding is a *constant*, not
            // linear in program size; at the evaluation scale it would
            // dwarf the binary. Report the BO row as it would look at
            // full scale: linear parts keep their ratios, the padding
            // contributes `padding / full-scale total`.
            let mut bo = bolt.size_breakdown;
            bo.text -= bolt.stats.alignment_padding as usize;
            let padding_pct =
                bolt.stats.alignment_padding as f64 * 100.0 / a.full_scale(total as u64) as f64;
            let with_padding =
                |part: usize| format!("{:.0}%", part as f64 * 100.0 / total as f64 + padding_pct);
            let mut row = row_of("BO", &bo, total);
            row[1] = with_padding(bo.text);
            row[6] = with_padding(bo.total());
            t.row(row);
        }
        let name = a.spec.name;
        println!("Figure 6 [{name}]: section sizes normalized to Base total\n");
        println!("{}", t.render());
    }
    println!("(paper: PM +7-9%, PO ~+1%, BM +20-60%, BO +30-150%)");
    Ok(ExitCode::SUCCESS)
}

/// Figure 7 — whole-binary instruction access heat maps: baseline vs
/// Propeller vs BOLT as ASCII art, with each map's "band height"
/// (active address rows; lower is tighter).
pub fn fig7(p: &Parsed) -> Result<ExitCode, CliError> {
    let opts = SimOptions {
        heatmap: Some((40, 64)),
        ..SimOptions::default()
    };
    for a in runs_on(p, &["clang"], run_benchmark)? {
        let a = a?;
        let heat = |layout: &FinalLayout| {
            let run = a.simulate_layout(layout, &a.uarch, &opts)?;
            let map = require(run.heatmap, "the heat map", "the simulation requested it")?;
            Ok::<_, CliError>((run.counters, map))
        };
        let (base_c, base_h) = heat(&a.baseline.layout)?;
        let (prop_c, prop_h) = heat(&a.po()?.layout)?;
        let (base_rows, prop_rows) = (base_h.active_rows(), prop_h.active_rows());
        println!("Figure 7(a): baseline (PGO+ThinLTO), active rows = {base_rows}");
        println!("{}", base_h.render_ascii());
        println!("Figure 7(b): + Propeller, active rows = {prop_rows}");
        println!("{}", prop_h.render_ascii());
        if let Some(bolt) = a.bolt_runnable() {
            let (bolt_c, bolt_h) = heat(&bolt.layout)?;
            println!(
                "Figure 7(c): + BOLT (note the band at a higher offset: the new text segment), \
                 active rows = {}",
                bolt_h.active_rows()
            );
            println!("{}", bolt_h.render_ascii());
            println!(
                "cycles: baseline={} propeller={} bolt={}",
                base_c.cycles, prop_c.cycles, bolt_c.cycles
            );
        }
        let band = if prop_rows <= base_rows {
            "tighter or equal"
        } else {
            "wider"
        };
        println!(
            "propeller band is {band} than baseline ({} vs {} cycles)",
            prop_c.cycles, base_c.cycles
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Figure 8 — performance counters normalized to the baseline. Events
/// (Table 4): I1 = L1 i-cache misses, I2 = L2 code read misses, I3 =
/// code misses to memory, T1 = iTLB misses, T2 = iTLB walks, B1 = branch
/// resteers (`baclears.any`), B2 = taken branches.
pub fn fig8(p: &Parsed) -> Result<ExitCode, CliError> {
    use Event::{
        Baclears, DsbMisses, ItlbMisses, L1iMisses, L2CodeMisses, L3CodeMisses, StlbWalks,
        TakenBranches,
    };
    const HEADER: [&str; 9] = ["binary", "I1", "I2", "I3", "T1", "T2", "B1", "B2", "DSB"];
    const EVENTS: [Event; 8] = [
        L1iMisses,
        L2CodeMisses,
        L3CodeMisses,
        ItlbMisses,
        StlbWalks,
        Baclears,
        TakenBranches,
        DsbMisses,
    ];
    fn row(t: &mut Table, label: &str, c: &CounterSet, base: &CounterSet) {
        let norm = |event: Event| {
            let b = event.get(base) as f64 / base.insts.max(1) as f64;
            let v = event.get(c) as f64 / c.insts.max(1) as f64;
            if b == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.0}%", v * 100.0 / b)
            }
        };
        let mut cells = vec![label.to_string()];
        cells.extend(EVENTS.map(norm));
        t.row(cells);
    }
    for a in runs_on(p, &["search", "clang"], run_benchmark)? {
        let a = a?;
        let name = a.spec.name;
        let mut t = Table::new(&HEADER);
        row(&mut t, "Propeller", &a.prop_counters, &a.base_counters);
        match &a.bolt_counters {
            Some(bolt) => row(&mut t, "BOLT", bolt, &a.base_counters),
            None => eprintln!("[fig8] BOLT binary for {name} crashes; skipping its row"),
        }
        let pages = if a.spec.hugepages { ", hugepages" } else { "" };
        println!(
            "Figure 8 [{name}{pages}]: counters normalized to baseline = 100% (lower is better)\n"
        );
        println!("{}", t.render());
        if a.spec.hugepages {
            // At the evaluation scale the 8x2MiB hugepage iTLB covers
            // the entire (shrunken) text segment, so the hugepage run
            // shows no TLB pressure. Re-measure with 4 KiB pages so
            // the T1/T2 layout effect is visible at this scale.
            println!(
                "[note] at scale {:.4} the text fits the hugepage iTLB; 4 KiB-page rerun below:\n",
                a.scale
            );
            let small_pages = UarchConfig::default();
            let sim4k = |layout: &FinalLayout| {
                let run = a.simulate_layout(layout, &small_pages, &SimOptions::default());
                run.map(|r| r.counters)
            };
            let base = sim4k(&a.baseline.layout)?;
            let mut t = Table::new(&HEADER);
            row(&mut t, "Propeller", &sim4k(&a.po()?.layout)?, &base);
            if let Some(bolt) = a.bolt_runnable() {
                row(&mut t, "BOLT", &sim4k(&bolt.layout)?, &base);
            }
            println!("{}", t.render());
        }
    }
    println!(
        "(paper: I1/I2 down to ~60-70%, T1 ~75%, T2 down to ~15% w/ hugepages, B1 ~70-78%, B2 \
         ~80-85%)"
    );
    Ok(ExitCode::SUCCESS)
}

/// Figure 9 — optimization run time: Propeller's backends + relink
/// (Phase 4) vs BOLT's monolithic rewrite vs the baseline build.
pub fn fig9(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&[
        "Benchmark",
        "Base backends+link",
        "Prop backends+relink",
        "Prop/Base",
        "BOLT rewrite",
        "Prop/BOLT",
    ]);
    for a in runs_on(p, &all_benchmarks(), run_benchmark)? {
        let a = a?;
        let ft = a.full_scale_times()?;
        let base = ft.backends_all + ft.link;
        let prop = ft.backends_hot + ft.relink;
        t.row(vec![
            a.spec.name.to_string(),
            format!("{base:.0}s"),
            format!("{prop:.0}s"),
            format!("{:.2}", prop / base.max(1e-9)),
            format!("{:.0}s", ft.bolt),
            format!("{:.2}", prop / ft.bolt.max(1e-9)),
        ]);
    }
    print_table(
        "Figure 9: optimization run time (modeled wall seconds at full scale)",
        &t,
        "(paper: warehouse-scale Prop/Base ~0.65, best 0.39; Prop ~62% faster than BOLT; on \
         workstation benchmarks BOLT 2-4x faster than Prop)",
    )
}

/// §5.4 — code layout on the SPEC2017 integer benchmarks: speedups plus
/// the taken-branch, i-cache-miss and DSB-miss deltas.
pub fn spec_table(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&[
        "Benchmark",
        "Propeller",
        "BOLT",
        "taken Δ (Prop)",
        "L1i Δ (Prop)",
        "DSB Δ (Prop)",
    ]);
    let (mut taken_sum, mut icache_sum, mut n) = (0.0, 0.0, 0.0);
    for a in runs_on(p, &SPEC_BENCHMARKS, run_benchmark)? {
        let a = a?;
        let base = &a.base_counters;
        let bolt = a
            .bolt_counters
            .map(|c| format!("{:+.1}%", c.speedup_pct_over(base)));
        let taken = a.prop_counters.delta_pct(base, |c| c.taken_branches);
        let icache = a.prop_counters.delta_pct(base, |c| c.l1i_misses);
        let dsb = a.prop_counters.delta_pct(base, |c| c.dsb_misses);
        taken_sum += taken;
        icache_sum += icache;
        n += 1.0;
        t.row(vec![
            a.spec.name.to_string(),
            format!("{:+.1}%", a.prop_counters.speedup_pct_over(base)),
            bolt.unwrap_or_else(|| "n/a".into()),
            format!("{taken:+.1}%"),
            format!("{icache:+.1}%"),
            format!("{dsb:+.1}%"),
        ]);
    }
    println!("SPEC2017 integer benchmarks (§5.4)\n");
    println!("{}", t.render());
    println!(
        "averages: taken branches {:+.1}%, L1i misses {:+.1}% (paper: ~-10% and ~-20%)",
        taken_sum / n,
        icache_sum / n
    );
    Ok(ExitCode::SUCCESS)
}

/// [`run_variants`] on each benchmark the ablation covers, beside the
/// benchmark's name.
fn variant_runs<'a>(
    p: &'a Parsed,
    paper: &[&str],
    period: u64,
    variants: &'a [(&str, OptionsPatch)],
) -> Result<impl Iterator<Item = Result<(&'static str, Vec<VariantRun>), CliError>> + 'a, CliError>
{
    let run = move |spec: &BenchmarkSpec, cfg: &RunConfig| {
        Ok((spec.name, run_variants(spec, cfg, period, variants)?))
    };
    runs_on(p, paper, run)
}

/// Sampling period of the two layout ablations.
const LAYOUT_ABLATION_PERIOD: u64 = 101;

/// One ablation row: the label, the speedup, then the per-instruction
/// change of each of `events` against the baseline.
fn variant_row(v: &VariantRun, events: [Event; 3]) -> Vec<String> {
    let (c, base) = (&v.eval.optimized, &v.eval.baseline);
    let mut row = vec![v.label.clone(), format!("{:+.2}%", v.eval.speedup_pct())];
    row.extend(events.map(|e| format!("{:+.1}%", c.delta_pct(base, |x| e.get(x)))));
    row
}

/// §4.6 ablation — function splitting: Ext-TSP reordering without
/// hot/cold splitting, splitting driven by the compile-time (PGO)
/// profile only (the Machine Function Splitter equivalent: cold = zero
/// PGO frequency, original block order), splitting by hardware samples
/// in original order, and the full Propeller configuration.
pub fn ablation_split(p: &Parsed) -> Result<ExitCode, CliError> {
    let variants: [(&str, OptionsPatch); 4] = [
        ("reorder-only (no split)", |o| o.wpa.split = false),
        ("split by PGO profile (compiler heuristic)", |o| {
            o.wpa.intra = IntraOrder::Original;
            o.wpa.cold_source = ColdSource::PgoFrequencies;
        }),
        ("split by hw samples (original order)", |o| {
            o.wpa.intra = IntraOrder::Original
        }),
        ("propeller (reorder+split)", |_| {}),
    ];
    let events = [Event::ItlbMisses, Event::L1iMisses, Event::TakenBranches];
    for run in variant_runs(p, &["clang"], LAYOUT_ABLATION_PERIOD, &variants)? {
        let (bench, runs) = run?;
        let mut t = Table::new(&[
            "config",
            "speedup",
            "iTLB misses",
            "L1i misses",
            "taken branches",
            "hot funcs",
        ]);
        for v in &runs {
            let mut row = variant_row(v, events);
            row.push(v.wpa_stats.hot_functions.to_string());
            t.row(row);
        }
        println!("§4.6 ablation: function splitting on {bench} (vs PGO+ThinLTO baseline)\n");
        println!("{}", t.render());
    }
    println!(
        "(paper: sample-driven splitting ~2x better than heuristic; up to -40% iTLB, -5% icache)"
    );
    Ok(ExitCode::SUCCESS)
}

/// §4.7 ablation — inter-procedural layout: intra-function layout (the
/// paper's shipped configuration) against whole-program layout with
/// functions split into extra numbered cluster sections, ordered
/// globally by Ext-TSP over the call-site graph; plus the measured
/// layout-computation time of the first two.
pub fn ablation_interproc(p: &Parsed) -> Result<ExitCode, CliError> {
    let variants: [(&str, OptionsPatch); 3] = [
        ("intra-function", |_| {}),
        ("inter-procedural", |o| {
            o.wpa = WpaOptions::interprocedural()
        }),
        ("inter-procedural (no extra clusters)", |o| {
            o.wpa.global = GlobalOrder::ExtTspInterproc;
            o.wpa.interproc_split = 0;
        }),
    ];
    let events = [Event::L1iMisses, Event::ItlbMisses, Event::TakenBranches];
    for run in variant_runs(p, &["clang"], LAYOUT_ABLATION_PERIOD, &variants)? {
        let (bench, runs) = run?;
        let mut t = Table::new(&[
            "config",
            "speedup",
            "L1i misses",
            "iTLB misses",
            "taken branches",
        ]);
        for v in &runs {
            t.row(variant_row(v, events));
        }
        println!("§4.7 ablation: inter-procedural layout on {bench}\n");
        println!("{}", t.render());
        let (intra, inter) = (runs[0].wpa_wall_secs, runs[1].wpa_wall_secs);
        println!(
            "layout computation wall time: intra {intra:.2}s, inter {inter:.2}s ({:.1}x)",
            inter / intra.max(1e-9)
        );
    }
    println!(
        "(paper: inter-function layout +0.8% perf, -11% icache, -13% iTLB, 3-10x layout time)"
    );
    Ok(ExitCode::SUCCESS)
}

/// §3.5 ablation — profile-guided software prefetch insertion, which
/// the paper describes as implementable within Propeller's split
/// local/global design: the standard configuration against Propeller +
/// prefetch insertion.
pub fn ablation_prefetch(p: &Parsed) -> Result<ExitCode, CliError> {
    let mut t = Table::new(&[
        "Benchmark",
        "layout only",
        "layout+prefetch",
        "prefetches/1k blocks",
        "L1i Δ (prefetch vs layout)",
    ]);
    let variants: [(&str, OptionsPatch); 2] = [
        ("layout only", |_| {}),
        ("layout+prefetch", |o| o.prefetch = Some(4)),
    ];
    let period = SamplingConfig::default().period;
    for run in variant_runs(p, &["search", "bigtable", "clang"], period, &variants)? {
        let (bench, runs) = run?;
        let (layout, both) = (&runs[0].eval, &runs[1].eval.optimized);
        let per_kilo_blocks = both.prefetches as f64 * 1000.0 / both.blocks.max(1) as f64;
        t.row(vec![
            bench.to_string(),
            format!("{:+.2}%", layout.speedup_pct()),
            format!("{:+.2}%", both.speedup_pct_over(&layout.baseline)),
            format!("{per_kilo_blocks:.1}"),
            format!(
                "{:+.1}%",
                both.delta_pct(&layout.optimized, |c| c.l1i_misses)
            ),
        ]);
    }
    print_table(
        "§3.5 ablation: software prefetch insertion on top of code layout",
        &t,
        "(the paper proposes this pass but does not evaluate it; reported for completeness)",
    )
}
