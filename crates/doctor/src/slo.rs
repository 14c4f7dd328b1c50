//! Declarative service-level objectives over the modeled-clock
//! timeline and the service ledger.
//!
//! An [`SloObjective`] names a metric (`p99_latency_ms`,
//! `queue_depth_max`, `rejection_rate`, …), a tenant scope (`"*"`
//! expands over every ledger tenant), and explicit WARN/FAIL bounds in
//! whichever direction is bad for that metric. [`evaluate_slo`] grades
//! every objective against a [`TimeSeries`] recorded on the modeled
//! clock plus the run's [`ServiceLedger`], producing the same
//! [`Finding`] vocabulary the rest of the doctor speaks — so `worst()`
//! and `render()` compose, and `propeller_cli slo` can exit nonzero on
//! FAIL as a CI gate.
//!
//! Latency objectives with a `window_secs`/`target` pair additionally
//! compute an **error-budget burn rate** over sliding modeled-time
//! windows: within each window, `bad` is the fraction of latency
//! events above the objective's `max_warn` bound, and
//! `burn = bad / (1 - target)`. A burn of 1.0 means the error budget
//! is being consumed exactly as fast as the target allows; sustained
//! burns above 1 exhaust it early. The reported value is the *maximum*
//! burn across windows — WARN above 1, FAIL above 10 (a fast burn that
//! would torch the budget in a tenth of the period).
//!
//! Everything is total: a missing series, an empty histogram or a
//! zero-traffic tenant yields an OK "no data" finding, never a panic —
//! the SLO report under a chaos plan must degrade as gracefully as the
//! service it watches.

use crate::doctor::{worst, Finding, Severity};
use propeller_faults::{ServiceLedger, TenantLedger};
use propeller_telemetry::json::{arr, obj};
use propeller_telemetry::TimeSeries;
use std::fmt;
use std::fmt::Write as _;

/// Burn rates above this WARN: the error budget is being consumed
/// faster than the target allows.
const BURN_WARN: f64 = 1.0;
/// Burn rates above this FAIL: the budget would be gone in a tenth of
/// the evaluation period.
const BURN_FAIL: f64 = 10.0;

/// One declarative objective.
#[derive(Clone, PartialEq, Debug)]
pub struct SloObjective {
    /// Display name (`name = "p99 latency"`). Defaults to the metric.
    pub name: String,
    /// Metric key: `p50_latency_ms`, `p95_latency_ms`,
    /// `p99_latency_ms`, `queue_depth_max`, `rejection_rate`,
    /// `deadline_timeout_rate` or `cache_hit_rate`.
    pub metric: String,
    /// Tenant scope: `"*"` expands over every ledger tenant, `"t2"`
    /// pins one.
    pub tenant: String,
    /// Values above this WARN (high-is-bad metrics).
    pub max_warn: Option<f64>,
    /// Values above this FAIL.
    pub max_fail: Option<f64>,
    /// Values below this WARN (low-is-bad metrics, e.g. cache hit
    /// rate).
    pub min_warn: Option<f64>,
    /// Values below this FAIL.
    pub min_fail: Option<f64>,
    /// Sliding burn-rate window in modeled seconds (latency metrics
    /// only; requires `target` and `max_warn`).
    pub window_secs: Option<f64>,
    /// The SLO target as a good-event fraction in `[0, 1)`, e.g.
    /// `0.99` for "99% of jobs publish under `max_warn` ms".
    pub target: Option<f64>,
}

impl SloObjective {
    fn named(metric: &str, tenant: &str) -> SloObjective {
        SloObjective {
            name: metric.to_string(),
            metric: metric.to_string(),
            tenant: tenant.to_string(),
            max_warn: None,
            max_fail: None,
            min_warn: None,
            min_fail: None,
            window_secs: None,
            target: None,
        }
    }
}

/// A parsed SLO configuration: the objectives, in file order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SloConfig {
    /// Objectives, evaluated in order.
    pub objectives: Vec<SloObjective>,
}

/// A parse failure with the 1-indexed line it happened on.
#[derive(Clone, PartialEq, Debug)]
pub struct SloParseError {
    /// 1-indexed line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SloParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slo config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SloParseError {}

impl SloConfig {
    /// The built-in service objectives used when no `--config` is
    /// given: generous latency/queue bounds that a healthy clean run
    /// clears, plus rate objectives that only trip under real
    /// pressure.
    pub fn default_service() -> SloConfig {
        let mut p99 = SloObjective::named("p99_latency_ms", "*");
        p99.max_warn = Some(600_000.0);
        p99.max_fail = Some(3_600_000.0);
        p99.window_secs = Some(120.0);
        p99.target = Some(0.99);
        let mut depth = SloObjective::named("queue_depth_max", "*");
        depth.max_warn = Some(64.0);
        depth.max_fail = Some(1024.0);
        let mut rej = SloObjective::named("rejection_rate", "*");
        rej.max_warn = Some(0.05);
        rej.max_fail = Some(0.5);
        let mut dead = SloObjective::named("deadline_timeout_rate", "*");
        dead.max_warn = Some(0.01);
        dead.max_fail = Some(0.25);
        let mut hit = SloObjective::named("cache_hit_rate", "*");
        hit.min_warn = Some(0.10);
        SloConfig { objectives: vec![p99, depth, rej, dead, hit] }
    }

    /// Parse the TOML subset the `slo` subcommand accepts:
    /// `[[objective]]` section headers, `key = value` pairs (quoted
    /// strings or bare numbers), and full-line or trailing `#`
    /// comments. No external TOML crate — the grammar is small enough
    /// to hand-roll and the error messages carry line numbers.
    pub fn parse(text: &str) -> Result<SloConfig, SloParseError> {
        let mut objectives: Vec<SloObjective> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let err = |message: String| SloParseError { line: lineno, message };
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[objective]]" {
                objectives.push(SloObjective::named("", "*"));
                continue;
            }
            if line.starts_with('[') {
                return Err(err(format!(
                    "unknown section {line:?}; only [[objective]] is supported"
                )));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(format!("expected `key = value`, got {line:?}")));
            };
            let Some(obj) = objectives.last_mut() else {
                return Err(err(format!(
                    "`{}` appears before the first [[objective]] header",
                    key.trim()
                )));
            };
            let key = key.trim();
            let value = value.trim();
            let as_str = |value: &str| -> Result<String, SloParseError> {
                if let Some(rest) = value.strip_prefix('"') {
                    let Some(end) = rest.find('"') else {
                        return Err(err(format!("unterminated string {value:?}")));
                    };
                    return Ok(rest[..end].to_string());
                }
                Ok(value.split('#').next().unwrap_or("").trim().to_string())
            };
            let as_num = |value: &str| -> Result<f64, SloParseError> {
                let v = value.split('#').next().unwrap_or("").trim();
                // `nan` and `inf` parse as `f64`s; no bound, target or
                // window means anything at either.
                v.parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite())
                    .ok_or_else(|| err(format!("`{key}` expects a number, got {v:?}")))
            };
            match key {
                "name" => obj.name = as_str(value)?,
                "metric" => {
                    let m = as_str(value)?;
                    if !KNOWN_METRICS.contains(&m.as_str()) {
                        return Err(err(format!(
                            "unknown metric {m:?}; known: {}",
                            KNOWN_METRICS.join(", ")
                        )));
                    }
                    if obj.name.is_empty() {
                        obj.name = m.clone();
                    }
                    obj.metric = m;
                }
                "tenant" => obj.tenant = as_str(value)?,
                "max_warn" => obj.max_warn = Some(as_num(value)?),
                "max_fail" => obj.max_fail = Some(as_num(value)?),
                "min_warn" => obj.min_warn = Some(as_num(value)?),
                "min_fail" => obj.min_fail = Some(as_num(value)?),
                "window_secs" => {
                    // The burn evaluation slides a window of this width
                    // across the whole run: zero is not a narrow window
                    // but an unbounded amount of work.
                    let secs = as_num(value)?;
                    if secs <= 0.0 {
                        return Err(err(format!("`window_secs` must be positive, got {secs}")));
                    }
                    obj.window_secs = Some(secs);
                }
                "target" => obj.target = Some(as_num(value)?),
                other => return Err(err(format!("unknown key {other:?}"))),
            }
        }
        for (i, obj) in objectives.iter().enumerate() {
            if obj.metric.is_empty() {
                return Err(SloParseError {
                    line: 0,
                    message: format!("objective #{} has no `metric`", i + 1),
                });
            }
        }
        Ok(SloConfig { objectives })
    }
}

/// Metric keys [`SloConfig::parse`] accepts.
pub const KNOWN_METRICS: &[&str] = &[
    "p50_latency_ms",
    "p95_latency_ms",
    "p99_latency_ms",
    "queue_depth_max",
    "rejection_rate",
    "deadline_timeout_rate",
    "cache_hit_rate",
];

/// The evaluated report: findings in objective order (burn findings
/// directly after their parent objective).
#[derive(Clone, PartialEq, Debug)]
pub struct SloReport {
    /// All findings, in evaluation order.
    pub findings: Vec<Finding>,
}

impl SloReport {
    /// Worst severity across the report.
    pub fn verdict(&self) -> Severity {
        worst(&self.findings)
    }

    /// Human-readable report, `propeller_cli slo` output.
    pub fn render(&self) -> String {
        let mut out = String::from("service-level objectives\n");
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  [{}] {:<40} {:>12.4}  {}",
                f.severity.label(),
                f.metric,
                f.value,
                f.message
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            match self.verdict() {
                Severity::Ok => "all objectives met",
                Severity::Warn => "error budget under pressure (see WARN lines)",
                Severity::Fail => "objectives violated (see FAIL lines)",
            }
        );
        out
    }

    /// Machine-readable JSON with a fixed member order (deterministic
    /// bytes — the slo-gate `cmp`s this across `--jobs` counts).
    pub fn to_json_string(&self) -> String {
        let finding = |f: &Finding| {
            obj([
                ("severity", f.severity.label().trim().into()),
                ("metric", f.metric.as_str().into()),
                ("value", f.value.into()),
                ("message", f.message.as_str().into()),
            ])
        };
        obj([
            ("verdict", self.verdict().label().trim().into()),
            ("findings", arr(&self.findings, finding)),
        ])
        .to_string_pretty()
    }
}

/// Grade `v` against the objective's explicit bounds (worst of the
/// high-is-bad and low-is-bad directions; objectives normally set only
/// one).
fn grade(v: f64, obj: &SloObjective) -> Severity {
    let mut s = Severity::Ok;
    if obj.max_fail.is_some_and(|f| v > f) || obj.min_fail.is_some_and(|f| v < f) {
        return Severity::Fail;
    }
    if obj.max_warn.is_some_and(|w| v > w) || obj.min_warn.is_some_and(|w| v < w) {
        s = Severity::Warn;
    }
    s
}

/// The tenants an objective's scope selects, in ledger (sorted) order.
fn scope<'a>(ledger: &'a ServiceLedger, obj: &SloObjective) -> Vec<(&'a String, &'a TenantLedger)> {
    ledger
        .tenants
        .iter()
        .filter(|(name, _)| obj.tenant == "*" || **name == obj.tenant)
        .collect()
}

/// Read the objective's value for one tenant, or `None` when there is
/// no data (no series recorded, empty histogram, zero denominator).
fn metric_value(
    timeline: &TimeSeries,
    row: &TenantLedger,
    tenant: &str,
    metric: &str,
) -> Option<f64> {
    let q = |q: f64| {
        timeline
            .histogram(&format!("latency_ms.{tenant}"))
            .and_then(|h| h.quantile(q))
    };
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    match metric {
        "p50_latency_ms" => q(0.50),
        "p95_latency_ms" => q(0.95),
        "p99_latency_ms" => q(0.99),
        "queue_depth_max" => timeline
            .get(&format!("queue_depth.{tenant}"))
            .and_then(|s| s.max_value()),
        "rejection_rate" => ratio(row.rejected_memory + row.rejected_queue, row.arrivals()),
        "deadline_timeout_rate" => ratio(row.deadline_timeouts, row.arrivals()),
        "cache_hit_rate" => ratio(row.cache_hits, row.cache_lookups),
        _ => None,
    }
}

/// Maximum error-budget burn rate over half-overlapping sliding
/// windows of `window_secs` modeled seconds. `None` when the series
/// recorded no events.
fn max_burn(
    timeline: &TimeSeries,
    tenant: &str,
    threshold: f64,
    window_secs: f64,
    target: f64,
) -> Option<f64> {
    let series = timeline.get(&format!("latency_ms.{tenant}"))?;
    let end = series.end_us()?;
    let window_us = ((window_secs.max(1e-6)) * 1e6) as u64;
    let step = (window_us / 2).max(1);
    let budget = (1.0 - target).max(1e-9);
    let mut worst: Option<f64> = None;
    let mut start = 0u64;
    loop {
        let points = series.window(start, start.saturating_add(window_us));
        if !points.is_empty() {
            let bad = points.iter().filter(|p| p.value > threshold).count() as f64;
            let burn = (bad / points.len() as f64) / budget;
            worst = Some(worst.map_or(burn, |w: f64| w.max(burn)));
        }
        if start >= end {
            break;
        }
        start = start.saturating_add(step);
    }
    worst
}

/// Evaluate every objective in `cfg` against the recorded timeline and
/// the run's ledger. Total on any input: missing series and
/// zero-traffic tenants produce OK "no data" findings, never panics —
/// chaos runs must still get a report.
pub fn evaluate_slo(timeline: &TimeSeries, ledger: &ServiceLedger, cfg: &SloConfig) -> SloReport {
    let mut findings = Vec::new();
    for obj in &cfg.objectives {
        let selected = scope(ledger, obj);
        if selected.is_empty() {
            findings.push(Finding {
                severity: Severity::Ok,
                metric: format!("slo.{}.{}", obj.tenant, obj.metric),
                value: 0.0,
                message: format!(
                    "objective {:?}: no tenant matches scope {:?}",
                    obj.name, obj.tenant
                ),
            });
            continue;
        }
        for (tenant, row) in selected {
            let key = format!("slo.{tenant}.{}", obj.metric);
            match metric_value(timeline, row, tenant, &obj.metric) {
                Some(v) => {
                    findings.push(Finding {
                        severity: grade(v, obj),
                        metric: key,
                        value: v,
                        message: objective_message(obj, tenant, v),
                    });
                    if let (Some(window), Some(target), Some(threshold)) =
                        (obj.window_secs, obj.target, obj.max_warn)
                    {
                        if obj.metric.ends_with("_latency_ms") {
                            if let Some(burn) =
                                max_burn(timeline, tenant, threshold, window, target)
                            {
                                findings.push(Finding {
                                    severity: if burn > BURN_FAIL {
                                        Severity::Fail
                                    } else if burn > BURN_WARN {
                                        Severity::Warn
                                    } else {
                                        Severity::Ok
                                    },
                                    metric: format!("slo.{tenant}.{}.burn", obj.metric),
                                    value: burn,
                                    message: format!(
                                        "tenant {tenant}: worst {window:.0}s window burned the \
                                         {:.2}% error budget at {burn:.2}x (jobs over \
                                         {threshold:.0} ms vs target {target})",
                                        (1.0 - target) * 100.0
                                    ),
                                });
                            }
                        }
                    }
                }
                None => findings.push(Finding {
                    severity: Severity::Ok,
                    metric: key,
                    value: 0.0,
                    message: format!(
                        "tenant {tenant}: no data for {} (no traffic or timeline not armed)",
                        obj.metric
                    ),
                }),
            }
        }
    }
    if findings.is_empty() {
        findings.push(Finding {
            severity: Severity::Ok,
            metric: "slo.none".into(),
            value: 0.0,
            message: "no objectives configured".into(),
        });
    }
    SloReport { findings }
}

fn objective_message(obj: &SloObjective, tenant: &str, v: f64) -> String {
    let bound = match (obj.max_warn, obj.min_warn) {
        (Some(w), _) => format!("warn above {w}"),
        (None, Some(w)) => format!("warn below {w}"),
        (None, None) => "no bounds".to_string(),
    };
    format!("tenant {tenant}: {} = {v:.4} ({bound})", obj.metric)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_with(rows: &[(&str, TenantLedger)]) -> ServiceLedger {
        let mut ledger = ServiceLedger {
            benchmark: "clang".into(),
            seed: 7,
            ..ServiceLedger::default()
        };
        for (name, row) in rows {
            ledger.tenants.insert((*name).to_string(), row.clone());
        }
        ledger
    }

    fn busy_row() -> TenantLedger {
        TenantLedger {
            submitted: 10,
            admitted: 9,
            completed: 9,
            rejected_queue: 1,
            deadline_timeouts: 0,
            cache_lookups: 20,
            cache_hits: 15,
            ..TenantLedger::default()
        }
    }

    #[test]
    fn parses_the_toml_subset_with_line_errors() {
        let cfg = SloConfig::parse(
            r#"
# latency objective
[[objective]]
name = "p99 latency"
metric = "p99_latency_ms"
tenant = "*"
max_warn = 2500.0  # trailing comment
max_fail = 6000
window_secs = 30
target = 0.99

[[objective]]
metric = "cache_hit_rate"
tenant = "t0"
min_warn = 0.5
"#,
        )
        .expect("parses");
        assert_eq!(cfg.objectives.len(), 2);
        assert_eq!(cfg.objectives[0].name, "p99 latency");
        assert_eq!(cfg.objectives[0].max_warn, Some(2500.0));
        assert_eq!(cfg.objectives[0].max_fail, Some(6000.0));
        assert_eq!(cfg.objectives[1].name, "cache_hit_rate");
        assert_eq!(cfg.objectives[1].tenant, "t0");

        let err = SloConfig::parse("metric = \"p99_latency_ms\"").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("before the first"));
        let err = SloConfig::parse("[[objective]]\nmetric = \"nope\"").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown metric"));
        let err = SloConfig::parse("[[objective]]\nmax_warn = lots").unwrap_err();
        assert!(err.message.contains("expects a number"));
    }

    #[test]
    fn a_window_that_is_not_positive_and_finite_is_an_error_on_its_line() {
        let with = |key: &str, value: &str| {
            SloConfig::parse(&format!(
                "[[objective]]\nmetric = \"p99_latency_ms\"\n# burn\n{key} = {value}\n"
            ))
        };
        for bad in ["0", "0.0", "-1", "nan", "inf", "-inf"] {
            let err = with("window_secs", bad).unwrap_err();
            assert_eq!(err.line, 4, "window_secs = {bad}");
            assert!(err.message.contains("window_secs"), "{}", err.message);
        }
        for key in ["max_warn", "max_fail", "min_warn", "min_fail", "target"] {
            for bad in ["nan", "inf"] {
                let err = with(key, bad).unwrap_err();
                assert_eq!(err.line, 4, "{key} = {bad}");
                assert!(err.message.contains(key), "{}", err.message);
            }
        }
        let ok = with("window_secs", "0.5").expect("a positive window parses");
        assert_eq!(ok.objectives[0].window_secs, Some(0.5));
    }

    #[test]
    fn grades_ledger_rates_and_series_maxima() {
        let mut row = busy_row();
        row.rejected_queue = 6; // 6 rejected of 10 arrivals = 0.6
        let ledger = ledger_with(&[("t0", row)]);
        let mut ts = TimeSeries::new();
        ts.gauge("queue_depth.t0", 0, 2.0);
        ts.gauge("queue_depth.t0", 10, 80.0);
        let report = evaluate_slo(&ts, &ledger, &SloConfig::default_service());
        let find = |m: &str| {
            report
                .findings
                .iter()
                .find(|f| f.metric == m)
                .unwrap_or_else(|| panic!("missing {m}: {:?}", report.findings))
        };
        assert_eq!(find("slo.t0.rejection_rate").severity, Severity::Fail);
        assert_eq!(find("slo.t0.queue_depth_max").severity, Severity::Warn);
        assert_eq!(find("slo.t0.queue_depth_max").value, 80.0);
        // Hit rate 15/20 clears the 0.10 floor.
        assert_eq!(find("slo.t0.cache_hit_rate").severity, Severity::Ok);
        // No latency events recorded → graceful no-data OK.
        assert_eq!(find("slo.t0.p99_latency_ms").severity, Severity::Ok);
        assert_eq!(report.verdict(), Severity::Fail);
        assert!(report.render().contains("objectives violated"));
    }

    #[test]
    fn burn_rate_flags_a_bad_window_good_total() {
        // 40 fast jobs spread over 400s, then a 10s storm of 10 slow
        // ones: overall p-latency looks fine, but one window burns the
        // whole budget.
        let mut ts = TimeSeries::new();
        for i in 0..40u64 {
            ts.event("latency_ms.t0", i * 10_000_000, 100.0);
        }
        for i in 0..10u64 {
            ts.event("latency_ms.t0", 400_000_000 + i * 1_000_000, 9_000.0);
        }
        let ledger = ledger_with(&[("t0", busy_row())]);
        let mut obj = SloObjective::named("p50_latency_ms", "*");
        obj.max_warn = Some(1_000.0);
        obj.max_fail = Some(60_000.0);
        obj.window_secs = Some(30.0);
        obj.target = Some(0.99);
        let report = evaluate_slo(&ts, &ledger, &SloConfig { objectives: vec![obj] });
        let burn = report
            .findings
            .iter()
            .find(|f| f.metric == "slo.t0.p50_latency_ms.burn")
            .expect("burn finding");
        // The storm window is 100% bad against a 1% budget: 100x burn.
        assert!(burn.value > 50.0, "{burn:?}");
        assert_eq!(burn.severity, Severity::Fail);
        // The p50 itself stays OK — that is the point of burn rates.
        let p50 = report
            .findings
            .iter()
            .find(|f| f.metric == "slo.t0.p50_latency_ms")
            .expect("p50 finding");
        assert_eq!(p50.severity, Severity::Ok, "{p50:?}");
    }

    #[test]
    fn wildcard_expands_every_tenant_in_sorted_order() {
        let ledger = ledger_with(&[("t0", busy_row()), ("t1", busy_row())]);
        let ts = TimeSeries::new();
        let mut obj = SloObjective::named("rejection_rate", "*");
        obj.max_warn = Some(0.5);
        let report = evaluate_slo(&ts, &ledger, &SloConfig { objectives: vec![obj] });
        let metrics: Vec<&str> = report.findings.iter().map(|f| f.metric.as_str()).collect();
        assert_eq!(metrics, ["slo.t0.rejection_rate", "slo.t1.rejection_rate"]);
    }

    #[test]
    fn empty_inputs_never_panic_and_stay_ok() {
        let report = evaluate_slo(
            &TimeSeries::new(),
            &ServiceLedger::default(),
            &SloConfig::default_service(),
        );
        assert_eq!(report.verdict(), Severity::Ok);
        let report =
            evaluate_slo(&TimeSeries::new(), &ServiceLedger::default(), &SloConfig::default());
        assert_eq!(report.verdict(), Severity::Ok);
        assert!(report.findings[0].metric.contains("none"));
        // JSON is well-formed and deterministic.
        assert_eq!(report.to_json_string(), report.to_json_string());
    }
}
