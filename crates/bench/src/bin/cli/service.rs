//! The multi-run subcommands on the modeled clock: `fleet`, and the
//! relink service's `traffic`, `timeline`, `slo` and `serve`.

use super::args::{load, write_file, write_quiet};
use super::error::gate;
use super::{CliError, Parsed};
use propeller::FaultPlan;
use propeller_doctor::{evaluate_slo, service_findings, RelinkPolicy, Severity, SloConfig};
use propeller_fleet::{run_fleet, FleetOptions};
use propeller_serve::traffic::{program_seed_for, NORMAL_PEAK_BYTES};
use propeller_serve::{
    gen_traffic, run_soak, soak_scenarios, verify_batch, JobRequest, RelinkService, ServeOptions,
    ServiceReport, TrafficConfig,
};
use propeller_telemetry::{chrome::to_chrome_trace, Telemetry, TimeSeries};
use std::process::ExitCode;

pub fn fleet(p: &Parsed) -> Result<ExitCode, CliError> {
    let spec = p.resolve()?;
    let d = FleetOptions::default();
    let fopts = FleetOptions {
        seed: p.program.seed.unwrap_or(d.seed),
        releases: p.releases.unwrap_or(d.releases),
        machines: p.machines.unwrap_or(d.machines),
        drift: p.drift.unwrap_or(d.drift),
        jobs: p.service.jobs.unwrap_or(d.jobs),
        policy: p
            .skew_threshold
            .map_or(d.policy, |max_skew| RelinkPolicy { max_skew }),
        history_window: p.history_window.unwrap_or(d.history_window),
        provenance: p.provenance,
        faults: p.service.faults.clone().unwrap_or_else(FaultPlan::none),
        ..d
    };
    let scale = p.program.scale.unwrap_or(spec.default_scale);
    let report = run_fleet(&spec, scale, &fopts)
        .map_err(|e| CliError::Gate(format!("fleet run failed: {e}")))?;
    println!(
        "fleet: {} scale {} seed {} | {} releases, {} machines, drift {}, \
         skew threshold {}, history window {}",
        report.benchmark,
        report.scale,
        report.seed,
        fopts.releases,
        report.machines,
        report.drift,
        report.skew_threshold,
        report.history_window,
    );
    println!(
        "{:>7}  {:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>6}  {:>9}",
        "release", "skew", "decision", "achieved%", "oracle%", "gap%", "cache%", "dropped"
    );
    for r in &report.records {
        println!(
            "{:>7}  {:>6.3}  {:>9}  {:>9.3}  {:>9.3}  {:>8.3}  {:>6.1}  {:>9}",
            r.release,
            r.skew,
            r.decision,
            r.achieved_speedup_pct,
            r.oracle_speedup_pct,
            r.gap_pct,
            r.cache_hit_rate * 100.0,
            r.dropped_records,
        );
        for d in &r.divergences {
            println!("         | {d}");
        }
    }
    println!("mean post-bootstrap gap: {:.3}%", report.mean_gap_pct());
    if let Some(dir) = p.out_dir()? {
        let dir = dir.display();
        let json_path = format!("{dir}/fleet_report.json");
        let csv_path = format!("{dir}/fleet_curve.csv");
        let tl_path = format!("{dir}/fleet_timeline.csv");
        write_quiet(&json_path, report.to_json_string())?;
        write_quiet(&csv_path, report.curve_csv())?;
        write_quiet(&tl_path, report.timeseries().to_csv())?;
        println!("wrote {json_path}, {csv_path} and {tl_path}");
    }
    let warmup = report.history_window;
    let steady = report.drift != 0.0 || report.steady_after_warmup(warmup);
    let unsteady = format!(
        "FLEET GATE: zero-drift run is not steady after the {warmup}-release warmup \
         (identical releases produced different ledger rows)"
    );
    gate(steady, unsteady)
}

/// The latest arrival a traffic plan may schedule, in modeled seconds:
/// half the service's `u64` microsecond clock, leaving the other half
/// for the queued jobs' modeled durations.
const MAX_PLAN_SECS: f64 = (u64::MAX / 2) as f64 / 1e6;

/// The traffic plan and service options a service subcommand's flags
/// describe. With `--seed`, one value seeds both the traffic generator
/// and the service; without it each keeps its own default.
fn service_plan(p: &Parsed) -> Result<(TrafficConfig, ServeOptions), CliError> {
    let spec = p.resolve()?;
    let d = TrafficConfig::default();
    let requests = p.service.requests.unwrap_or(d.requests);
    let mean_gap_secs = p.service.mean_gap.unwrap_or(d.mean_gap_secs);
    // A gap is up to 1.5 mean gaps, and an arrival past the clock would
    // wrap it and read every latency as zero.
    let max_gap = MAX_PLAN_SECS / 1.5 / requests as f64;
    if mean_gap_secs > max_gap {
        return Err(CliError::Usage(format!(
            "--mean-gap {mean_gap_secs:?}: need at most {max_gap:e} with --requests {requests}, \
             for every arrival to fit the modeled clock"
        )));
    }
    let cfg = TrafficConfig {
        benchmark: spec.name.to_string(),
        scale: p.program.scale.unwrap_or(d.scale),
        seed: p.program.seed.unwrap_or(d.seed),
        requests,
        tenants: p.service.tenants.unwrap_or(d.tenants),
        mean_gap_secs,
        ..d
    };
    let d = ServeOptions::default();
    let sopts = ServeOptions {
        // Keep CLI service runs CI-cheap; the library default budget
        // targets the larger in-process harnesses.
        profile_budget: 30_000,
        seed: p.program.seed.unwrap_or(d.seed),
        slots: p.service.slots.unwrap_or(d.slots),
        queue_capacity: p.service.queue.unwrap_or(d.queue_capacity),
        cache_capacity: p.service.cache_capacity,
        faults: p.service.faults.clone().unwrap_or_else(FaultPlan::none),
        jobs: p.service.jobs.unwrap_or(1),
        ..d
    };
    Ok((cfg, sopts))
}

/// One traffic plan run through the service, shared by `traffic`,
/// `timeline` and `slo`: the same real work either way, with every
/// scheduling decision also landing in the returned [`TimeSeries`]
/// when `arm_timeline` (it stays empty otherwise). With `trace`, the
/// Chrome trace is rendered with the series appended as counter events.
fn run_service(
    cfg: &TrafficConfig,
    sopts: ServeOptions,
    arm_timeline: bool,
    trace: bool,
) -> Result<(ServiceReport, TimeSeries, Option<String>), CliError> {
    let mut svc = RelinkService::new(&cfg.benchmark, cfg.scale, sopts)?;
    if arm_timeline {
        svc.arm_timeline();
    }
    if trace {
        svc.set_telemetry(Telemetry::enabled());
    }
    let report = svc.run(&gen_traffic(cfg))?;
    let timeline = svc.timeline().cloned().unwrap_or_default();
    let chrome = trace.then(|| to_chrome_trace(&svc.telemetry().drain(), &timeline));
    Ok((report, timeline, chrome))
}

fn print_violations(report: &ServiceReport) {
    for v in &report.violations {
        eprintln!("accounting violation: {v}");
    }
}

/// The CI serve gate: the full scenario matrix, each at --jobs 1 and
/// the requested parallelism plus a replay, with byte-identical
/// ledgers required.
fn soak(p: &Parsed, scale: f64, profile_budget: u64, jobs: usize) -> Result<ExitCode, CliError> {
    let dir = p.out_dir()?;
    let jobs_matrix = if jobs <= 1 { vec![1, 8] } else { vec![1, jobs] };
    let outcomes = run_soak(
        &soak_scenarios(),
        scale,
        profile_budget,
        &jobs_matrix,
        p.verify_batch,
    )
    .map_err(|e| CliError::Gate(format!("soak gate: {e}")))?;
    println!(
        "{:<20} {:>9} {:>8} {:>9} {:>8} {:>7} {:>8} {:>5}",
        "scenario", "completed", "rejected", "cancelled", "timeouts", "retries", "hit-rate", "sigs"
    );
    for o in &outcomes {
        let t = o.ledger.totals();
        let hit_rate = match t.cache_lookups {
            0 => 0.0,
            lookups => t.cache_hits as f64 / lookups as f64 * 100.0,
        };
        println!(
            "{:<20} {:>9} {:>8} {:>9} {:>8} {:>7} {:>7.1}% {:>5}",
            o.name,
            t.completed,
            t.rejected_memory + t.rejected_queue,
            t.cancelled_by_client + t.cancelled_by_fault,
            t.deadline_timeouts,
            t.retries,
            hit_rate,
            o.signatures_verified,
        );
        if let Some(dir) = &dir {
            write_file(
                dir.join(format!("soak_{}.json", o.name)),
                o.ledger_json.clone(),
            )?;
        }
    }
    println!(
        "soak gate: all {} scenarios passed at jobs {:?} + replay{}",
        outcomes.len(),
        jobs_matrix,
        if p.verify_batch {
            " with batch-equivalent binaries"
        } else {
            ""
        }
    );
    Ok(ExitCode::SUCCESS)
}

pub fn traffic(p: &Parsed) -> Result<ExitCode, CliError> {
    let (cfg, sopts) = service_plan(p)?;
    let profile_budget = sopts.profile_budget;
    if p.soak {
        return soak(p, cfg.scale, profile_budget, sopts.jobs);
    }
    let dir = p.out_dir()?;
    let (report, _, chrome) = run_service(&cfg, sopts, false, p.outputs.trace_out.is_some())?;
    let totals = report.ledger.totals();
    println!(
        "traffic: {} arrivals ({} burst clones) over {:.1} modeled s -> {} completed",
        totals.arrivals(),
        totals.burst_clones,
        report.ledger.makespan_secs,
        totals.completed,
    );
    print!("{}", report.ledger.render());
    let findings = service_findings(&report.ledger);
    print!("{}", propeller_doctor::render(&findings));
    print_violations(&report);
    if let (Some(path), Some(json)) = (&p.outputs.trace_out, chrome) {
        write_quiet(path, json)?;
        println!("wrote {path} (one lane per tenant; open at ui.perfetto.dev)");
    }
    if let Some(dir) = &dir {
        write_file(
            dir.join("service_ledger.json"),
            report.ledger.to_json_string(),
        )?;
    }
    let mut mismatches = 0;
    if p.verify_batch {
        let (signatures, divergent) =
            verify_batch(&cfg.benchmark, cfg.scale, profile_budget, &report)?;
        for job in &divergent {
            eprintln!(
                "batch divergence: job {} (tenant t{}) shipped bytes differing from the \
                 equivalent batch relink",
                job.id, job.tenant
            );
        }
        if divergent.is_empty() {
            println!("batch equivalence: {signatures} signature(s) verified byte-identical");
        }
        mismatches = divergent.len();
    }
    let exact = report.violations.is_empty()
        && report.ledger.accounts_exactly()
        && mismatches == 0
        && propeller_doctor::worst(&findings) != Severity::Fail;
    gate(
        exact,
        "traffic gate: accounting or batch-equivalence failure",
    )
}

/// The per-tenant latency percentile table both timeline-backed
/// subcommands print.
fn print_latency_table(report: &ServiceReport, ts: &TimeSeries) {
    println!(
        "{:<8} {:>9} {:>10} {:>10} {:>10}",
        "tenant", "completed", "p50_ms", "p95_ms", "p99_ms"
    );
    for (name, row) in &report.ledger.tenants {
        let q = |q: f64| {
            ts.histogram(&format!("latency_ms.{name}"))
                .and_then(|h| h.quantile(q))
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
        };
        let (completed, p50, p95, p99) = (row.completed, q(0.50), q(0.95), q(0.99));
        println!("{name:<8} {completed:>9} {p50:>10} {p95:>10} {p99:>10}");
    }
}

/// Most ticks per series `timeline_sampled.csv` may hold. The resampled
/// CSV is for reading and plotting, and `timeline.csv` already keeps
/// every point at full resolution, so ticks past what a plot can show
/// add bytes and no information: at `--interval 0.000001` a 10-minute
/// makespan is 6·10⁸ rows per series, gigabytes of output.
const SAMPLED_ROW_BUDGET: u64 = 10_000;

/// `timeline` and `slo`: the traffic plan with the timeline armed;
/// `slo` additionally evaluates `slo_cfg` against it.
fn timeline_run(p: &Parsed, slo_cfg: Option<SloConfig>) -> Result<ExitCode, CliError> {
    let cmd = p.cmd;
    let (cfg, sopts) = service_plan(p)?;
    let (report, timeline, chrome) = run_service(&cfg, sopts, true, p.outputs.trace_out.is_some())?;
    // Only `timeline --out` writes the resampled CSV.
    let interval_secs = p.interval.unwrap_or(10.0);
    let rows = (timeline.end_us() as f64 / (interval_secs * 1e6)).floor();
    if slo_cfg.is_none() && p.outputs.out.is_some() && rows > SAMPLED_ROW_BUDGET as f64 {
        return Err(CliError::Usage(format!(
            "--interval {interval_secs}: need at most {SAMPLED_ROW_BUDGET} rows per series in \
             timeline_sampled.csv, got {rows} over the {:.1} s modeled makespan",
            timeline.end_us() as f64 / 1e6
        )));
    }
    let dir = p.out_dir()?;
    let totals = report.ledger.totals();
    println!(
        "{cmd}: {} arrivals over {:.1} modeled s -> {} completed; {} series recorded",
        totals.arrivals(),
        report.ledger.makespan_secs,
        totals.completed,
        timeline.names().len(),
    );
    print_latency_table(&report, &timeline);
    if let (Some(path), Some(json)) = (&p.outputs.trace_out, chrome) {
        write_quiet(path, json)?;
        println!("wrote {path} (tenant lanes + counter tracks; open at ui.perfetto.dev)");
    }
    if let Some(dir) = &dir {
        write_file(dir.join("timeline.csv"), timeline.to_csv())?;
        if slo_cfg.is_none() {
            write_file(
                dir.join("timeline_sampled.csv"),
                timeline.sampled_csv((interval_secs * 1e6) as u64),
            )?;
        }
    }
    print_violations(&report);
    if let Some(slo_cfg) = slo_cfg {
        let slo = evaluate_slo(&timeline, &report.ledger, &slo_cfg);
        print!("{}", slo.render());
        if let Some(dir) = &dir {
            write_file(dir.join("slo_report.json"), slo.to_json_string())?;
        }
        gate(
            slo.verdict() != Severity::Fail,
            "slo gate: objectives violated",
        )?;
    }
    let exact = report.violations.is_empty() && report.ledger.accounts_exactly();
    gate(exact, format!("{cmd}: service accounting failure"))
}

pub fn timeline(p: &Parsed) -> Result<ExitCode, CliError> {
    timeline_run(p, None)
}

pub fn slo(p: &Parsed) -> Result<ExitCode, CliError> {
    let slo_cfg = match &p.config {
        Some(path) => load(path, SloConfig::parse)?,
        None => SloConfig::default_service(),
    };
    timeline_run(p, Some(slo_cfg))
}

pub fn serve(p: &Parsed) -> Result<ExitCode, CliError> {
    let (mut seed_cfg, sopts) = service_plan(p)?;
    // Program-seed defaults fold tenants onto shared variants, exactly
    // like generated traffic, so repeat submissions exercise warm
    // cross-tenant cache hits.
    seed_cfg.seed = sopts.seed;
    let (benchmark, scale) = (&seed_cfg.benchmark, seed_cfg.scale);
    let mut svc = RelinkService::new(benchmark, scale, sopts)?;
    println!(
        "relink service ready on {benchmark} (scale {scale}); commands: \
         submit <tenant> [program-seed] | drain | ledger | shutdown"
    );
    let mut next_id = 0u64;
    let mut next_arrival_us = 0u64;
    for line in std::io::stdin().lines() {
        let line = line.map_err(CliError::io("<stdin>"))?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => {}
            Some("submit") => {
                let tenant = parts
                    .next()
                    .and_then(|t| t.trim_start_matches('t').parse::<u32>().ok());
                let Some(tenant) = tenant else {
                    eprintln!("usage: submit <tenant> [program-seed]");
                    continue;
                };
                let program_seed = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| program_seed_for(&seed_cfg, tenant));
                // Arrivals tick one modeled second apart; the service
                // clamps to its own clock if later.
                next_arrival_us += 1_000_000;
                svc.submit(JobRequest {
                    id: next_id,
                    tenant,
                    arrival_us: next_arrival_us,
                    program_seed,
                    declared_peak_bytes: NORMAL_PEAK_BYTES,
                    cancel_after_secs: None,
                });
                println!("queued job {next_id} for t{tenant} (program {program_seed:#x})");
                next_id += 1;
            }
            Some("drain") => {
                svc.drain()?;
                let report = svc.report();
                println!(
                    "drained: {} job(s) completed, modeled makespan {:.1}s",
                    report.completed.len(),
                    report.ledger.makespan_secs
                );
            }
            Some("ledger") => print!("{}", svc.report().ledger.render()),
            Some("shutdown") => break,
            Some(other) => {
                eprintln!("unknown command {other:?} (submit | drain | ledger | shutdown)");
            }
        }
    }
    svc.drain()?;
    let report = svc.report();
    print!("{}", report.ledger.render());
    print_violations(&report);
    let exact = report.violations.is_empty() && report.ledger.accounts_exactly();
    gate(exact, "serve gate: ledger does not account exactly")
}
