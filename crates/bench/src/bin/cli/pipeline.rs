//! The single-pipeline subcommands: `list`, `run`, `doctor`, `chaos`,
//! `compare`, `perf-report`, `annotate`, `explain`, `dump`, `map`.

use super::args::{write_file, write_quiet};
use super::error::{exit_code, gate, require};
use super::{CliError, Parsed};
use propeller::{EvalReport, FaultPlan, Propeller, PropellerOptions};
use propeller_bench::runner::generate_at;
use propeller_bench::{run_benchmark, BenchArtifacts};
use propeller_doctor::{
    audit_pipeline, degradation_findings, diagnose, provenance_findings, render_annotate,
    render_explain, render_perf_report, wall_clock_findings, worst, AttributionSection,
    ProvenanceDoc, RunReport, Severity,
};
use propeller_sim::{heatmap_csv, heatmap_pgm, AttributedCounters, Event, SimOptions, SimReport};
use propeller_synth::{all_specs, BenchmarkSpec};
use propeller_telemetry::json::{num_entries, obj};
use propeller_telemetry::{chrome::to_chrome_trace, report::render_text};
use propeller_telemetry::{JsonValue, Telemetry};
use propeller_wpa::cluster_map_to_text;
use std::process::ExitCode;

pub fn list(_: &Parsed) -> Result<ExitCode, CliError> {
    println!(
        "{:<15} {:>10} {:>9} {:>10} {:>7} {:>9}",
        "benchmark", "text", "funcs", "blocks", "%cold", "scale"
    );
    for s in all_specs() {
        println!(
            "{:<15} {:>9}M {:>9} {:>10} {:>6.0}% {:>9.4}",
            s.name,
            s.text_bytes / (1024 * 1024),
            s.funcs,
            s.blocks,
            s.cold_object_fraction * 100.0,
            s.default_scale
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn wpa_of(pipeline: &Propeller) -> Result<&propeller_wpa::WpaOutput, CliError> {
    require(pipeline.wpa_output(), "the WPA output", "phase 3 completed")
}

fn audit(pipeline: &Propeller) -> Result<propeller_doctor::ProfileAudit, CliError> {
    audit_pipeline(pipeline).map_err(|e| CliError::Gate(format!("audit failed: {e}")))
}

pub fn run(p: &Parsed) -> Result<ExitCode, CliError> {
    let (spec, scale, gen) = p.generate()?;
    let seed = p.seed();
    println!("{}: {}", spec.name, gen.program.stats());
    let out = &p.outputs;
    // The export flags arm the matching Phase 3 collectors; without
    // them the options stay bit-identical to the defaults, so baseline
    // run_report.json does not change.
    let opts = PropellerOptions {
        heatmap: out.heatmap_out.as_ref().map(|_| (64, 64)),
        attribution: out.flamegraph_out.is_some(),
        provenance: p.provenance,
        ..p.pipeline_options()
    };
    let mut pipeline = Propeller::new(gen.program, gen.entries, opts);
    // `--out` embeds a metrics snapshot in the RunReport, so telemetry
    // must be live for either output flag.
    if out.trace_out.is_some() || out.out.is_some() {
        pipeline.set_telemetry(Telemetry::enabled());
    }
    let report = pipeline.run_all()?;
    println!(
        "hot functions: {}; hot modules: {:.0}%; relaxation: {} jumps deleted, {} branches shrunk",
        report.hot_functions,
        report.hot_module_fraction * 100.0,
        report.deleted_jumps,
        report.shrunk_branches
    );
    println!(
        "ir cache: {}/{} hits; object cache: {}/{} hits",
        report.ir_cache.hits,
        report.ir_cache.lookups,
        report.object_cache.hits,
        report.object_cache.lookups
    );
    if !report.degradation.is_clean() {
        print!("{}", report.degradation.render());
    }
    let eval = pipeline.evaluate(400_000)?;
    println!(
        "speedup over PGO+ThinLTO baseline: {:+.2}% ({} -> {} cycles)",
        eval.speedup_pct(),
        eval.baseline.cycles,
        eval.optimized.cycles
    );
    if let Some(path) = &out.flamegraph_out {
        let needs = "--flamegraph-out armed attribution";
        let folded = require(pipeline.profile_folded(), "the folded profile", needs)?;
        write_file(path, folded.to_text())?;
    }
    if let Some(path) = &out.heatmap_out {
        let needs = "--heatmap-out armed collection";
        let hm = require(pipeline.profile_heatmap(), "the heat map", needs)?;
        let render = if path.ends_with(".pgm") {
            heatmap_pgm
        } else {
            heatmap_csv
        };
        write_file(path, render(hm))?;
    }
    let trace = pipeline
        .telemetry()
        .is_enabled()
        .then(|| pipeline.telemetry().drain());
    if let Some(path) = &out.trace_out {
        let needs = "--trace-out enabled telemetry";
        let trace = require(trace.as_ref(), "the telemetry trace", needs)?;
        write_quiet(path, to_chrome_trace(trace))?;
        println!("wrote {path} (open at chrome://tracing or ui.perfetto.dev)\n");
        print!("{}", render_text(trace));
    }
    let Some(dir) = p.out_dir()? else {
        return Ok(ExitCode::SUCCESS);
    };
    let wpa = wpa_of(&pipeline)?;
    let audit = audit(&pipeline)?;
    let mut run_report = RunReport::collect(
        spec.name,
        scale,
        seed,
        &pipeline,
        &report,
        Some(&eval),
        Some(&audit),
        trace.map(|t| t.metrics),
    );
    // Only set when attribution actually ran, so baseline reports stay
    // bit-identical.
    if let Some(attr) = pipeline.profile_attribution() {
        let top = p.top.unwrap_or(10);
        run_report.attribution = Some(AttributionSection::from_attribution(attr, top));
    }
    write_file(
        dir.join("cc_prof.txt"),
        cluster_map_to_text(&wpa.cluster_map, pipeline.program()),
    )?;
    write_file(dir.join("ld_prof.txt"), wpa.symbol_order.to_file_contents())?;
    write_file(dir.join("run_report.json"), run_report.to_json_string())?;
    if p.provenance {
        let mut doc = ProvenanceDoc::collect(spec.name, scale, seed, &pipeline, None);
        if let Some(attr) = pipeline.profile_attribution() {
            doc.attribution = attr
                .symbols
                .iter()
                .map(|s| (s.name.clone(), s.total.cycles))
                .collect();
        }
        doc.validate_replay()
            .map_err(|e| CliError::Gate(format!("provenance replay check failed: {e}")))?;
        write_file(dir.join("layout_provenance.json"), doc.to_json_string())?;
    }
    Ok(ExitCode::SUCCESS)
}

pub fn doctor(p: &Parsed) -> Result<ExitCode, CliError> {
    let (spec, scale, gen) = p.generate()?;
    let seed = p.seed();
    // The doctor always collects provenance: arming changes no layout
    // and no report, and the coverage/replay audit needs the decision
    // records to exist.
    let mut opts = p.pipeline_options();
    opts.provenance = true;
    let jobs = opts.jobs;
    let mut pipeline = Propeller::new(gen.program, gen.entries, opts);
    pipeline.run_all()?;
    let mut findings = diagnose(&audit(&pipeline)?);
    findings.extend(wall_clock_findings(pipeline.times(), jobs));
    let doc = ProvenanceDoc::collect(spec.name, scale, seed, &pipeline, None);
    let wpa = wpa_of(&pipeline)?;
    findings.extend(provenance_findings(&wpa.provenance, &doc));
    findings.extend(degradation_findings(pipeline.degradation()));
    print!("{}", propeller_doctor::render(&findings));
    Ok(exit_code(worst(&findings) != Severity::Fail))
}

/// The built-in chaos matrix: every fault family alone and in
/// combination, bracketed by the clean run (must stay ledger-clean)
/// and total profile loss (must fall back to the identity layout).
fn chaos_matrix() -> Vec<(&'static str, FaultPlan)> {
    let parse = |s: &str| FaultPlan::parse(s).expect("static chaos plan literal parses");
    vec![
        ("zero-faults", FaultPlan::none()),
        ("transient-storm", parse("transient=0.7")),
        ("timeout-storm", parse("timeout=0.5")),
        ("cache-chaos", parse("corrupt-cache=0.5,evict-cache=0.3")),
        (
            "partial-profile-loss",
            parse("corrupt-lbr=0.4,truncate-samples=0.3"),
        ),
        ("full-profile-loss", FaultPlan::full_profile_loss()),
        ("permanent-codegen", parse("permanent-codegen=1")),
        (
            "kitchen-sink",
            parse(
                "transient=0.4,timeout=0.2,corrupt-cache=0.4,evict-cache=0.2,\
                 corrupt-lbr=0.3,truncate-samples=0.3,permanent-codegen=0.5",
            ),
        ),
    ]
}

/// Runs one chaos scenario to completion and returns its JSON members
/// plus every invariant it violated.
fn run_chaos_scenario(
    plan: &FaultPlan,
    spec: &BenchmarkSpec,
    scale: f64,
    seed: u64,
) -> (Vec<(&'static str, JsonValue)>, Vec<String>) {
    let gen = generate_at(spec, scale, seed);
    let opts = PropellerOptions {
        faults: plan.clone(),
        seed,
        ..PropellerOptions::default()
    };
    let mut pipeline = Propeller::new(gen.program, gen.entries, opts);
    let mut members = Vec::new();
    let mut broken = Vec::new();
    let report = match pipeline.run_all() {
        Ok(report) => report,
        Err(e) => return (members, vec![format!("pipeline failed to complete: {e}")]),
    };
    let ledger = &report.degradation;
    // Survival: the degraded binary must still retire exactly the
    // baseline's block trace (correctness), with finite accounting.
    match pipeline.evaluate(150_000) {
        Ok(eval) => {
            if eval.optimized.blocks != eval.baseline.blocks {
                broken.push(format!(
                    "optimized binary retires {} blocks, baseline {} — not semantically \
                     equivalent",
                    eval.optimized.blocks, eval.baseline.blocks
                ));
            }
            members.push(("speedup_pct", eval.speedup_pct().into()));
        }
        Err(e) => broken.push(format!("evaluation failed: {e}")),
    }
    if !ledger.retry_backoff_secs.is_finite() {
        broken.push("retry backoff accumulated to a non-finite value".into());
    }
    // Exact accounting: every fault the injector fired must be visible
    // in the ledger, one-for-one.
    if let Some(inj) = pipeline.fault_injector() {
        broken.extend(ledger.unbooked_faults(inj));
        if ledger.cache_rebuilds != ledger.cache_corruptions + ledger.cache_evictions {
            broken.push(format!(
                "{} cache rebuilds for {} corruptions + {} evictions",
                ledger.cache_rebuilds, ledger.cache_corruptions, ledger.cache_evictions
            ));
        }
    } else if !plan.is_none() {
        broken.push("non-empty plan but no injector was armed".into());
    }
    if plan.is_none() && !ledger.is_clean() {
        broken.push(format!("zero-fault run dirtied the ledger: {ledger}"));
    }
    print!("{}", ledger.render());
    members.push(("layout_mode", ledger.layout_mode.as_str().into()));
    members.push(("degradation", num_entries(ledger.entries())));
    (members, broken)
}

/// Runs every scenario, prints each ledger, writes the JSON artifact,
/// and fails on any violated invariant.
pub fn chaos(p: &Parsed) -> Result<ExitCode, CliError> {
    let spec = p.resolve()?;
    let scale = p.program.scale.unwrap_or(0.004);
    let seed = p.program.seed.unwrap_or(77);
    let matrix = chaos_matrix();
    let mut violations = Vec::new();
    let mut scenarios = Vec::new();
    for (name, plan) in &matrix {
        let plan_str = plan.to_spec_string();
        let shown = if plan_str.is_empty() {
            "<none>"
        } else {
            &plan_str
        };
        println!("=== chaos scenario {name} (plan: {shown}) ===");
        let (members, broken) = run_chaos_scenario(plan, &spec, scale, seed);
        let mut doc = vec![("name", (*name).into()), ("plan", plan_str.as_str().into())];
        doc.extend(members);
        doc.push(("survived", broken.is_empty().into()));
        scenarios.push(obj(doc));
        let tagged = broken
            .into_iter()
            .map(|what| format!("chaos violation: [{name}] {what}\n"));
        violations.extend(tagged);
    }
    if let Some(dir) = p.out_dir()? {
        let doc = obj([
            ("benchmark", spec.name.into()),
            ("scale", scale.into()),
            ("seed", seed.into()),
            ("scenarios", JsonValue::Arr(scenarios)),
        ]);
        write_file(dir.join("chaos_report.json"), doc.to_string_pretty())?;
    }
    if violations.is_empty() {
        println!("chaos gate: all {} scenarios survived", matrix.len());
    }
    let n = violations.len();
    let summary = format!("{}chaos gate: {n} violation(s)", violations.concat());
    gate(n == 0, summary)
}

/// Resolves the benchmark and runs the full comparison harness on it.
/// Here `--scale` multiplies the spec's default scale.
fn run_bench(p: &Parsed, provenance: bool) -> Result<BenchArtifacts, CliError> {
    Ok(run_benchmark(&p.resolve()?, &p.run_config(provenance))?)
}

/// One comparable layout's label and its simulation on the evaluation
/// workload with symbol attribution on.
type AttributedRun = (&'static str, SimReport);

fn attr_of(report: &SimReport) -> Result<&AttributedCounters, CliError> {
    let needs = "the simulation requested it";
    require(report.attribution.as_ref(), "per-symbol attribution", needs)
}

/// Runs the benchmark, then simulates its comparable layouts (only the
/// one labelled `only`, when given) on the identical evaluation
/// workload with attribution on.
fn attributed_runs(
    p: &Parsed,
    provenance: bool,
    only: Option<&str>,
) -> Result<(BenchArtifacts, Vec<AttributedRun>), CliError> {
    let a = run_bench(p, provenance)?;
    let opts = SimOptions {
        attribution: true,
        ..SimOptions::default()
    };
    let layouts = a.comparable_layouts()?.into_iter();
    let runs = layouts
        .filter(|(label, _)| only.is_none_or(|o| o == *label))
        .map(|(label, layout)| Ok((label, a.simulate_layout(layout, &a.uarch, &opts)?)))
        .collect::<Result<Vec<_>, CliError>>()?;
    let needs = "every benchmark run produces them";
    require(runs.first(), "a simulated layout", needs)?;
    Ok((a, runs))
}

/// The trailing hint both per-function subcommands print when the
/// function is not in the run.
fn with_hottest(mut msg: String, attr: &AttributedCounters) -> CliError {
    let hot = attr.top_by(Event::Cycles, 10);
    if !hot.is_empty() {
        let names: Vec<&str> = hot.iter().map(|&i| attr.symbols[i].name.as_str()).collect();
        msg.push_str(&format!("\nhottest symbols: {}", names.join(", ")));
    }
    CliError::Gate(msg)
}

/// Resolves `--event`, or `None` when the flag is absent.
fn event_flag(p: &Parsed) -> Result<Option<Event>, CliError> {
    let Some(name) = &p.event else {
        return Ok(None);
    };
    let event = Event::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        CliError::Gate(format!(
            "unknown event {name:?} (one of: {})",
            names.join(", ")
        ))
    })?;
    Ok(Some(event))
}

pub fn compare(p: &Parsed) -> Result<ExitCode, CliError> {
    let a = run_bench(p, false)?;
    let bolt_speedup = a.bolt_counters.map(|c| c.speedup_pct_over(&a.base_counters));
    if p.json {
        let eval = EvalReport {
            baseline: a.base_counters,
            optimized: a.prop_counters,
        };
        let audit = audit_pipeline(&a.pipeline).ok();
        let mut run_report = RunReport::collect(
            a.spec.name,
            a.scale,
            p.seed(),
            &a.pipeline,
            &a.report,
            Some(&eval),
            audit.as_ref(),
            None,
        );
        if let Some(pct) = bolt_speedup {
            run_report.metrics.insert("bolt.speedup_pct".into(), pct);
        }
        let text = run_report.to_json_string();
        match &p.outputs.out {
            Some(path) => write_file(path, text)?,
            None => print!("{text}"),
        }
        return Ok(ExitCode::SUCCESS);
    }
    let (name, metric) = (a.spec.name, a.spec.metric);
    let prop = a.prop_counters.speedup_pct_over(&a.base_counters);
    println!("{name} ({metric}): Propeller {prop:+.2}%");
    match (&a.bolt, bolt_speedup) {
        (_, Some(pct)) => println!("{name} ({metric}): BOLT      {pct:+.2}%"),
        (Ok(_), None) => println!("{name}: BOLT-optimized binary crashes at startup"),
        (Err(e), None) => println!("{name}: BOLT failed: {e}"),
    }
    Ok(ExitCode::SUCCESS)
}

pub fn perf_report(p: &Parsed) -> Result<ExitCode, CliError> {
    use Event::{Baclears, Cycles, DsbMisses, ItlbMisses, L1iMisses};
    let key_set = || vec![Cycles, L1iMisses, ItlbMisses, Baclears, DsbMisses];
    let events = event_flag(p)?.map_or_else(key_set, |event| vec![event]);
    // The same evaluation workload for every variant, so the
    // per-symbol deltas decompose the aggregate speedup.
    let (a, runs) = attributed_runs(p, false, None)?;
    let top = p.top.unwrap_or(10);
    let mut attrs = Vec::with_capacity(runs.len());
    for (label, report) in &runs {
        attrs.push((*label, attr_of(report)?));
    }
    println!("{} · scale {:.4} · seed {}", a.spec.name, a.scale, p.seed());
    let (base_label, base) = &runs[0];
    for (label, report) in &runs[1..] {
        let pct = report.counters.speedup_pct_over(&base.counters);
        println!("{label}: {pct:+.2}% cycles vs {base_label}");
    }
    for event in events {
        println!();
        print!("{}", render_perf_report(event, top, attrs[0], &attrs[1..]));
    }
    if let Some(path) = &p.outputs.out {
        let section = |attr| AttributionSection::from_attribution(attr, top).to_json();
        let variants = attrs.iter().map(|(label, attr)| (*label, section(attr)));
        let doc = obj([
            ("benchmark", a.spec.name.into()),
            ("scale", a.scale.into()),
            ("seed", p.seed().into()),
            ("top", top.into()),
            ("variants", obj(variants)),
        ]);
        write_file(path, doc.to_string_pretty())?;
    }
    if let Some(path) = &p.outputs.flamegraph_out {
        let prop = runs.iter().find(|(label, _)| *label == "propeller");
        let needs = "attribution was requested for every variant";
        let folded = prop.and_then(|(_, report)| report.folded.as_ref());
        let folded = require(folded, "the propeller run's folded stacks", needs)?;
        write_file(path, folded.to_text())?;
    }
    Ok(ExitCode::SUCCESS)
}

pub fn annotate(p: &Parsed) -> Result<ExitCode, CliError> {
    let function = &p.positionals[1];
    let event = event_flag(p)?.unwrap_or(Event::Cycles);
    let (a, runs) = attributed_runs(p, false, Some("propeller"))?;
    let attr = attr_of(&runs[0].1)?;
    let Some(sym) = attr.symbol(function) else {
        let bench = a.spec.name;
        let msg = format!("function {function:?} retired no events in the {bench} run");
        return Err(with_hottest(msg, attr));
    };
    let wpa = wpa_of(&a.pipeline)?;
    let mut functions = wpa.provenance.functions.iter();
    let prov = functions.find(|f| &f.func_symbol == function);
    print!("{}", render_annotate(sym, event, prov));
    Ok(ExitCode::SUCCESS)
}

pub fn explain(p: &Parsed) -> Result<ExitCode, CliError> {
    // `<function>[:<block>]` — the suffix is a block id only when it
    // parses as a number, so plain symbol names that happen to contain
    // a colon keep working.
    let target = p.positionals[1].as_str();
    let (function, block) = match target.rsplit_once(':').map(|(f, b)| (f, b.parse::<u32>())) {
        Some((f, Ok(id))) => (f, Some(id)),
        _ => (target, None),
    };
    // Simulate the shipped binary with attribution on, so the
    // explanation ends at measured microarchitectural cost.
    let (a, runs) = attributed_runs(p, true, Some("propeller"))?;
    let doc = ProvenanceDoc::collect(a.spec.name, a.scale, p.seed(), &a.pipeline, None);
    let attr = attr_of(&runs[0].1)?;
    let text = render_explain(&doc, function, block, attr.symbol(function))
        .map_err(|e| with_hottest(e, attr))?;
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

pub fn dump(p: &Parsed) -> Result<ExitCode, CliError> {
    let (_, _, gen) = p.generate()?;
    print!("{}", propeller_ir::pretty::program_to_string(&gen.program));
    Ok(ExitCode::SUCCESS)
}

pub fn map(p: &Parsed) -> Result<ExitCode, CliError> {
    let (_, _, gen) = p.generate()?;
    let mut pipeline = Propeller::new(gen.program, gen.entries, PropellerOptions::default());
    pipeline.run_all()?;
    let needs = "phase 4 completed";
    let binary = require(pipeline.po_binary(), "the optimized binary", needs)?;
    print!("{}", binary.map_report());
    Ok(ExitCode::SUCCESS)
}
