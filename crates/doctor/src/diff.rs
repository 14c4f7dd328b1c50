//! Structural and metric diffs between two [`RunReport`]s — the bench
//! regression gate.
//!
//! Only the `metrics` map is gated: each key has a known *direction*
//! (higher-better, lower-better, or informational), and a change in the
//! bad direction beyond the tolerance is a regression. Wall times and
//! layout changes are reported but never fail the gate — layouts are
//! *expected* to change when the optimizer improves.
//!
//! Fault plans partition the gate. When both reports ran under the
//! *same* plan, their degradation ledgers gate lower-better: more
//! retries / fallbacks / dropped records at equal injected faults is a
//! resilience regression. When the plans differ, the runs are not
//! comparable — a candidate run under chaos is *supposed* to degrade —
//! so every delta (metrics and ledger alike) is reported
//! informationally and nothing fails the gate.

use crate::report::RunReport;
use propeller_wpa::FunctionProvenance;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric is allowed to move freely.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Shrinking is a regression.
    HigherBetter,
    /// Growing is a regression.
    LowerBetter,
    /// Neither direction gates.
    Informational,
}

/// The gate direction of a metric key.
///
/// Exact names are matched first; unknown keys fall back to substring
/// heuristics, and anything still ambiguous is informational — the gate
/// never guesses a direction to fail on.
pub fn direction_of(key: &str) -> Direction {
    match key {
        "doctor.sample_coverage"
        | "doctor.fallthrough_confidence"
        | "doctor.sample_capture_ratio"
        | "eval.speedup_pct"
        | "eval.base_ipc"
        | "eval.opt_ipc"
        | "cache.ir_hit_rate"
        | "cache.obj_hit_rate" => Direction::HigherBetter,
        "doctor.skew"
        | "doctor.unmapped_rate"
        | "mapper.skipped_funcs"
        | "mapper.unmapped_addrs"
        | "eval.opt_cycles"
        | "eval.l1i_miss_delta_pct"
        | "eval.itlb_miss_delta_pct"
        | "eval.baclears_delta_pct" => Direction::LowerBetter,
        k if k.ends_with("_hit_rate") || k.ends_with("coverage") => Direction::HigherBetter,
        k if k.contains("miss") || k.contains("unmapped") || k.contains("skew") => {
            Direction::LowerBetter
        }
        _ => Direction::Informational,
    }
}

/// One changed metric.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricDelta {
    /// Metric key.
    pub key: String,
    /// Value in report A (the baseline).
    pub a: f64,
    /// Value in report B (the candidate).
    pub b: f64,
    /// Relative change in percent (`(b - a) / |a| * 100`; ±100 when `a`
    /// is zero).
    pub delta_pct: f64,
    /// The key's gate direction.
    pub direction: Direction,
    /// Whether the change exceeds the tolerance in the bad direction.
    pub regression: bool,
}

/// One structural layout difference.
#[derive(Clone, PartialEq, Debug)]
pub struct LayoutChange {
    /// The function whose layout changed.
    pub func_symbol: String,
    /// What changed, human-readable.
    pub what: String,
}

/// Everything that differs between two reports.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DiffReport {
    /// Changed metrics (only keys present in both reports).
    pub deltas: Vec<MetricDelta>,
    /// Metric keys only report A has.
    pub only_in_a: Vec<String>,
    /// Metric keys only report B has.
    pub only_in_b: Vec<String>,
    /// Changed wall figures (never gate).
    pub wall_deltas: Vec<MetricDelta>,
    /// Structural layout differences (never gate).
    pub layout_changes: Vec<LayoutChange>,
    /// Changed degradation-ledger entries: lower-better when the two
    /// reports ran under the same fault plan, informational otherwise.
    pub degradation_deltas: Vec<MetricDelta>,
    /// Per-symbol attributed-cycle changes (symbols present in both
    /// reports' attribution sections). Lower-better at equal fault
    /// plans: a layout change that regresses one hot function fails
    /// the gate even when the aggregate speedup barely moves.
    pub attribution_deltas: Vec<MetricDelta>,
    /// Fault plan of the baseline report (empty when fault-free).
    pub plan_a: String,
    /// Fault plan of the candidate report (empty when fault-free).
    pub plan_b: String,
    /// The tolerance the diff was computed at, in percent.
    pub tolerance_pct: f64,
}

impl DiffReport {
    /// True when nothing at all differs — `diff(A, A)` at any
    /// tolerance.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
            && self.only_in_a.is_empty()
            && self.only_in_b.is_empty()
            && self.wall_deltas.is_empty()
            && self.layout_changes.is_empty()
            && self.degradation_deltas.is_empty()
            && self.attribution_deltas.is_empty()
            && !self.plans_differ()
    }

    /// True when the two reports ran under different fault plans — in
    /// which case all gating was suspended.
    pub fn plans_differ(&self) -> bool {
        self.plan_a != self.plan_b
    }

    /// True when any gated metric moved in the bad direction beyond the
    /// tolerance.
    pub fn has_regression(&self) -> bool {
        self.deltas
            .iter()
            .chain(&self.degradation_deltas)
            .chain(&self.attribution_deltas)
            .any(|d| d.regression)
    }

    /// Renders the diff for terminal output.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "reports are identical\n".to_string();
        }
        let mut out = String::new();
        if self.plans_differ() {
            let show = |p: &str| if p.is_empty() { "<none>".to_string() } else { p.to_string() };
            let _ = writeln!(
                out,
                "  fault plans differ (baseline: {}, candidate: {}) — runs are \
                 not comparable, all regression gating suspended",
                show(&self.plan_a),
                show(&self.plan_b)
            );
        }
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "  {:<30} {:>12.4} -> {:>12.4} ({:+.2}%){}",
                d.key,
                d.a,
                d.b,
                d.delta_pct,
                if d.regression { "  REGRESSION" } else { "" }
            );
        }
        for k in &self.only_in_a {
            let _ = writeln!(out, "  {k:<30} only in baseline report");
        }
        for k in &self.only_in_b {
            let _ = writeln!(out, "  {k:<30} only in candidate report");
        }
        for d in &self.wall_deltas {
            let _ = writeln!(
                out,
                "  {:<30} {:>12.4} -> {:>12.4} ({:+.2}%)  [wall, not gated]",
                d.key, d.a, d.b, d.delta_pct
            );
        }
        for d in &self.degradation_deltas {
            let _ = writeln!(
                out,
                "  degradation.{:<18} {:>12.4} -> {:>12.4} ({:+.2}%){}",
                d.key,
                d.a,
                d.b,
                d.delta_pct,
                if d.regression {
                    "  REGRESSION"
                } else if self.plans_differ() {
                    "  [not gated: plans differ]"
                } else {
                    ""
                }
            );
        }
        for d in &self.attribution_deltas {
            let _ = writeln!(
                out,
                "  cycles[{:<22}] {:>12.0} -> {:>12.0} ({:+.2}%){}",
                d.key,
                d.a,
                d.b,
                d.delta_pct,
                if d.regression {
                    "  REGRESSION"
                } else if self.plans_differ() {
                    "  [not gated: plans differ]"
                } else {
                    ""
                }
            );
        }
        for c in &self.layout_changes {
            let _ = writeln!(out, "  layout {:<23} {}", c.func_symbol, c.what);
        }
        let _ = writeln!(
            out,
            "{} metric change(s), {} degradation change(s), {} per-symbol change(s), {} layout change(s), tolerance {}%: {}",
            self.deltas.len(),
            self.degradation_deltas.len(),
            self.attribution_deltas.len(),
            self.layout_changes.len(),
            self.tolerance_pct,
            if self.has_regression() {
                "REGRESSION"
            } else {
                "ok"
            }
        );
        out
    }
}

fn relative_delta_pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            100.0 * b.signum()
        }
    } else {
        (b - a) / a.abs() * 100.0
    }
}

/// The delta of one value that changed, `None` when it did not. A
/// worsening move must exceed the tolerance to gate; the magnitude
/// compared is the size of the *bad* move relative to the baseline, so
/// tolerance 0 gates every worsening change.
fn delta_of(
    key: &str,
    a: f64,
    b: f64,
    direction: Direction,
    tolerance_pct: f64,
) -> Option<MetricDelta> {
    if a == b {
        return None;
    }
    let delta_pct = relative_delta_pct(a, b);
    let regression = match direction {
        Direction::HigherBetter => b < a && -delta_pct > tolerance_pct,
        Direction::LowerBetter => b > a && delta_pct > tolerance_pct,
        Direction::Informational => false,
    };
    Some(MetricDelta { key: key.to_string(), a, b, delta_pct, direction, regression })
}

/// Lower-better when the two runs are comparable, informational
/// otherwise — the direction of every ledger entry and cycle count.
fn lower_better_if(gated: bool) -> Direction {
    if gated {
        Direction::LowerBetter
    } else {
        Direction::Informational
    }
}

fn diff_metric_maps(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    tolerance_pct: f64,
    gated: bool,
) -> (Vec<MetricDelta>, Vec<String>, Vec<String>) {
    let mut deltas = Vec::new();
    let mut only_a = Vec::new();
    let mut only_b = Vec::new();
    for (k, &va) in a {
        let Some(&vb) = b.get(k) else {
            only_a.push(k.clone());
            continue;
        };
        let direction = if gated {
            direction_of(k)
        } else {
            Direction::Informational
        };
        deltas.extend(delta_of(k, va, vb, direction, tolerance_pct));
    }
    for k in b.keys() {
        if !a.contains_key(k) {
            only_b.push(k.clone());
        }
    }
    (deltas, only_a, only_b)
}

fn diff_layouts(a: &[FunctionProvenance], b: &[FunctionProvenance]) -> Vec<LayoutChange> {
    let index = |fs: &[FunctionProvenance]| -> BTreeMap<String, FunctionProvenance> {
        fs.iter().map(|f| (f.func_symbol.clone(), f.clone())).collect()
    };
    let fa = index(a);
    let fb = index(b);
    let mut changes = Vec::new();
    for (symbol, f) in &fa {
        let Some(g) = fb.get(symbol) else {
            changes.push(LayoutChange {
                func_symbol: symbol.clone(),
                what: "no longer hot (dropped from layout)".into(),
            });
            continue;
        };
        let ca: Vec<(&str, &[u32])> = f
            .clusters
            .iter()
            .map(|c| (c.symbol.as_str(), c.blocks.as_slice()))
            .collect();
        let cb: Vec<(&str, &[u32])> = g
            .clusters
            .iter()
            .map(|c| (c.symbol.as_str(), c.blocks.as_slice()))
            .collect();
        if ca != cb {
            changes.push(LayoutChange {
                func_symbol: symbol.clone(),
                what: format!(
                    "cluster plan changed ({} -> {} clusters)",
                    f.clusters.len(),
                    g.clusters.len()
                ),
            });
        }
        for (c, d) in f.clusters.iter().zip(&g.clusters) {
            if c.symbol == d.symbol && c.symbol_order_pos != d.symbol_order_pos {
                changes.push(LayoutChange {
                    func_symbol: symbol.clone(),
                    what: format!(
                        "{} moved in symbol order: {:?} -> {:?}",
                        c.symbol, c.symbol_order_pos, d.symbol_order_pos
                    ),
                });
            }
        }
    }
    for symbol in fb.keys() {
        if !fa.contains_key(symbol) {
            changes.push(LayoutChange {
                func_symbol: symbol.clone(),
                what: "newly hot (added to layout)".into(),
            });
        }
    }
    changes
}

/// Degradation-ledger deltas. Both ledgers enumerate the same entry
/// names in the same fixed order, so a zip pairs them exactly. Every
/// ledger entry is lower-better — more degradation at the same injected
/// faults means resilience got worse — but only gates when the plans
/// were equal.
fn diff_degradation(a: &RunReport, b: &RunReport, tolerance_pct: f64) -> Vec<MetricDelta> {
    let direction = lower_better_if(a.fault_plan == b.fault_plan);
    let (ea, eb) = (a.degradation.entries(), b.degradation.entries());
    ea.into_iter()
        .zip(eb)
        .filter_map(|((k, va), (_, vb))| delta_of(k, va, vb, direction, tolerance_pct))
        .collect()
}

/// Per-symbol attributed-cycle deltas — the `perf report` gate. Only
/// symbols present in both attribution sections compare (a symbol
/// entering or leaving the top-N is a ranking change, not a measured
/// regression); cycles are lower-better and gate at the shared
/// tolerance when the fault plans match.
fn diff_attribution(a: &RunReport, b: &RunReport, tolerance_pct: f64) -> Vec<MetricDelta> {
    let (Some(sa), Some(sb)) = (&a.attribution, &b.attribution) else {
        return Vec::new();
    };
    let direction = lower_better_if(a.fault_plan == b.fault_plan);
    sa.symbols
        .iter()
        .filter_map(|row| {
            let (va, vb) = (row.counters.cycles, sb.get(&row.symbol)?.counters.cycles);
            delta_of(&row.symbol, va as f64, vb as f64, direction, tolerance_pct)
        })
        .collect()
}

/// Diffs candidate report `b` against baseline report `a` at the given
/// tolerance (percent). Gated metrics moving in their bad direction by
/// more than `tolerance_pct` mark the diff as a regression. When the
/// reports ran under different fault plans nothing gates (see the
/// module docs).
pub fn diff_reports(a: &RunReport, b: &RunReport, tolerance_pct: f64) -> DiffReport {
    let comparable = a.fault_plan == b.fault_plan;
    let (deltas, only_in_a, only_in_b) =
        diff_metric_maps(&a.metrics, &b.metrics, tolerance_pct, comparable);
    let (wall_deltas, wall_only_a, wall_only_b) =
        diff_metric_maps(&a.wall, &b.wall, tolerance_pct, false);
    let mut only_in_a = only_in_a;
    let mut only_in_b = only_in_b;
    only_in_a.extend(wall_only_a);
    only_in_b.extend(wall_only_b);
    DiffReport {
        deltas,
        only_in_a,
        only_in_b,
        wall_deltas,
        layout_changes: diff_layouts(&a.layout.functions, &b.layout.functions),
        degradation_deltas: diff_degradation(a, b, tolerance_pct),
        attribution_deltas: diff_attribution(a, b, tolerance_pct),
        plan_a: a.fault_plan.clone(),
        plan_b: b.fault_plan.clone(),
        tolerance_pct,
    }
}

/// A series diff over three or more reports — the fleet release
/// inspection view: one row per metric, one column per report, plus the
/// full pairwise gate over every consecutive pair.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TrendReport {
    /// Labels of the input reports, in order (file names at the CLI).
    pub labels: Vec<String>,
    /// Per-metric value series, keyed by metric name. A report missing
    /// the metric contributes `None` at its position.
    pub series: BTreeMap<String, Vec<Option<f64>>>,
    /// `diff(reports[i], reports[i+1])` for every consecutive pair —
    /// the exact same gate machinery two-report `diff` uses.
    pub steps: Vec<DiffReport>,
    /// The tolerance every step was gated at, in percent.
    pub tolerance_pct: f64,
}

impl TrendReport {
    /// True when any consecutive step regresses.
    pub fn has_regression(&self) -> bool {
        self.steps.iter().any(DiffReport::has_regression)
    }

    /// Renders the per-metric trend table plus a one-line verdict per
    /// step.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "  {:<30}", "metric");
        for l in &self.labels {
            // File paths are long; the stem is enough to tell columns
            // apart in a release series.
            let stem = l.rsplit('/').next().unwrap_or(l);
            let _ = write!(out, " {stem:>14.14}");
        }
        out.push('\n');
        for (key, values) in &self.series {
            let _ = write!(out, "  {key:<30}");
            for v in values {
                match v {
                    Some(v) => {
                        let _ = write!(out, " {v:>14.4}");
                    }
                    None => {
                        let _ = write!(out, " {:>14}", "-");
                    }
                }
            }
            // Direction annotation: does the series end worse than it
            // started, per the metric's gate direction?
            let ends = values.iter().flatten().copied().collect::<Vec<_>>();
            if let (Some(&first), Some(&last)) = (ends.first(), ends.last()) {
                let worse = match direction_of(key) {
                    Direction::HigherBetter => last < first,
                    Direction::LowerBetter => last > first,
                    Direction::Informational => false,
                };
                if worse {
                    let _ = write!(out, "  worsening");
                }
            }
            out.push('\n');
        }
        for (i, step) in self.steps.iter().enumerate() {
            let _ = writeln!(
                out,
                "  step {} -> {}: {}",
                self.labels.get(i).map(String::as_str).unwrap_or("?"),
                self.labels.get(i + 1).map(String::as_str).unwrap_or("?"),
                if step.has_regression() {
                    "REGRESSION"
                } else {
                    "ok"
                }
            );
        }
        let _ = writeln!(
            out,
            "{} report(s), tolerance {}%: {}",
            self.labels.len(),
            self.tolerance_pct,
            if self.has_regression() {
                "REGRESSION"
            } else {
                "ok"
            }
        );
        out
    }
}

/// Diffs a series of reports (release order) at the given tolerance:
/// every consecutive pair runs through [`diff_reports`], and all
/// metrics are pivoted into per-metric trend rows. Two reports reduce
/// to a single-step trend; the CLI keeps its classic two-report output
/// for that case.
pub fn trend_reports(reports: &[(String, &RunReport)], tolerance_pct: f64) -> TrendReport {
    let mut series: BTreeMap<String, Vec<Option<f64>>> = BTreeMap::new();
    for (i, (_, r)) in reports.iter().enumerate() {
        for (k, &v) in &r.metrics {
            series
                .entry(k.clone())
                .or_insert_with(|| vec![None; reports.len()])[i] = Some(v);
        }
    }
    let steps = reports
        .windows(2)
        .map(|w| diff_reports(w[0].1, w[1].1, tolerance_pct))
        .collect();
    TrendReport {
        labels: reports.iter().map(|(l, _)| l.clone()).collect(),
        series,
        steps,
        tolerance_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_wpa::ClusterProvenance;

    fn report_with(metrics: &[(&str, f64)]) -> RunReport {
        let mut r = RunReport {
            benchmark: "x".into(),
            scale: 1.0,
            seed: 1,
            ..RunReport::default()
        };
        for (k, v) in metrics {
            r.metrics.insert((*k).into(), *v);
        }
        r
    }

    #[test]
    fn self_diff_is_empty_at_zero_tolerance() {
        let mut r = report_with(&[("eval.speedup_pct", 5.0), ("doctor.skew", 0.1)]);
        r.wall.insert("total.wall_secs".into(), 9.0);
        r.layout.functions.push(FunctionProvenance {
            func_symbol: "f".into(),
            total_samples: 10,
            hot_blocks: 2,
            cold_blocks: 0,
            merge_gains: vec![1.0],
            layout_score: 2.0,
            input_score: 1.0,
            used_input_order: false,
            clusters: vec![ClusterProvenance {
                symbol: "f".into(),
                blocks: vec![0, 1],
                weight: 10,
                size: 20,
                cold: false,
                symbol_order_pos: Some(0),
            }],
        });
        let d = diff_reports(&r, &r, 0.0);
        assert!(d.is_empty());
        assert!(!d.has_regression());
        assert!(d.render().contains("identical"));
    }

    #[test]
    fn speedup_drop_beyond_tolerance_regresses() {
        let a = report_with(&[("eval.speedup_pct", 10.0)]);
        let b = report_with(&[("eval.speedup_pct", 9.0)]);
        // 10% relative drop: beyond a 5% tolerance, within a 20% one.
        assert!(diff_reports(&a, &b, 5.0).has_regression());
        assert!(!diff_reports(&a, &b, 20.0).has_regression());
        // An *improvement* never regresses.
        assert!(!diff_reports(&b, &a, 0.0).has_regression());
    }

    #[test]
    fn lower_better_metrics_gate_on_growth() {
        let a = report_with(&[("doctor.unmapped_rate", 0.01)]);
        let b = report_with(&[("doctor.unmapped_rate", 0.05)]);
        assert!(diff_reports(&a, &b, 10.0).has_regression());
        assert!(!diff_reports(&b, &a, 0.0).has_regression());
    }

    #[test]
    fn informational_and_wall_changes_never_gate() {
        let mut a = report_with(&[("wpa.hot_functions", 10.0)]);
        let mut b = report_with(&[("wpa.hot_functions", 50.0)]);
        a.wall.insert("total.wall_secs".into(), 1.0);
        b.wall.insert("total.wall_secs".into(), 99.0);
        let d = diff_reports(&a, &b, 0.0);
        assert!(!d.has_regression());
        assert_eq!(d.deltas.len(), 1);
        assert_eq!(d.wall_deltas.len(), 1);
    }

    #[test]
    fn missing_keys_are_reported_not_gated() {
        let a = report_with(&[("doctor.skew", 0.1), ("eval.speedup_pct", 5.0)]);
        let b = report_with(&[("eval.speedup_pct", 5.0), ("new.metric", 1.0)]);
        let d = diff_reports(&a, &b, 0.0);
        assert_eq!(d.only_in_a, vec!["doctor.skew".to_string()]);
        assert_eq!(d.only_in_b, vec!["new.metric".to_string()]);
        assert!(!d.has_regression());
        assert!(!d.is_empty());
    }

    #[test]
    fn layout_changes_are_structural() {
        let mk = |blocks: Vec<u32>, pos: Option<usize>| FunctionProvenance {
            func_symbol: "f".into(),
            total_samples: 10,
            hot_blocks: blocks.len(),
            cold_blocks: 0,
            merge_gains: vec![],
            layout_score: 0.0,
            input_score: 0.0,
            used_input_order: true,
            clusters: vec![ClusterProvenance {
                symbol: "f".into(),
                blocks,
                weight: 10,
                size: 20,
                cold: false,
                symbol_order_pos: pos,
            }],
        };
        let mut a = report_with(&[]);
        a.layout.functions.push(mk(vec![0, 1, 2], Some(3)));
        let mut b = report_with(&[]);
        b.layout.functions.push(mk(vec![0, 2, 1], Some(5)));
        let d = diff_reports(&a, &b, 0.0);
        assert_eq!(d.layout_changes.len(), 2, "block order + order pos");
        assert!(!d.has_regression());
        let mut c = report_with(&[]);
        c.layout.functions.push({
            let mut f = mk(vec![0, 1, 2], Some(3));
            f.func_symbol = "g".into();
            f
        });
        let d2 = diff_reports(&a, &c, 0.0);
        assert_eq!(d2.layout_changes.len(), 2, "f dropped, g added");
    }

    #[test]
    fn degradation_growth_at_equal_plans_regresses() {
        let plan = "transient=0.5";
        let mut a = report_with(&[]);
        a.fault_plan = plan.into();
        a.degradation.action_retries = 2;
        let mut b = report_with(&[]);
        b.fault_plan = plan.into();
        b.degradation.action_retries = 7;
        let d = diff_reports(&a, &b, 0.0);
        assert!(d.has_regression());
        assert_eq!(d.degradation_deltas.len(), 1);
        assert_eq!(d.degradation_deltas[0].direction, Direction::LowerBetter);
        assert!(d.render().contains("REGRESSION"));
        // Shrinking degradation at the same plan is an improvement.
        assert!(!diff_reports(&b, &a, 0.0).has_regression());
    }

    #[test]
    fn differing_plans_suspend_all_gating() {
        // Candidate ran under chaos: its degradation AND its worse
        // metrics are intentional, not regressions.
        let mut a = report_with(&[("eval.speedup_pct", 10.0)]);
        a.fault_plan = String::new();
        let mut b = report_with(&[("eval.speedup_pct", 2.0)]);
        b.fault_plan = "corrupt-lbr=1".into();
        b.degradation.lbr_records_dropped = 500;
        b.degradation.layout_mode = propeller_faults::LayoutMode::IdentityFallback;
        let d = diff_reports(&a, &b, 0.0);
        assert!(d.plans_differ());
        assert!(!d.has_regression());
        assert!(d.deltas.iter().all(|m| m.direction == Direction::Informational));
        assert!(d
            .degradation_deltas
            .iter()
            .all(|m| m.direction == Direction::Informational));
        assert!(d.render().contains("gating suspended"));
        assert!(!d.is_empty());
    }

    #[test]
    fn self_diff_of_degraded_report_is_empty() {
        let mut r = report_with(&[("eval.speedup_pct", 5.0)]);
        r.fault_plan = "transient=1:3".into();
        r.degradation.action_retries = 3;
        let d = diff_reports(&r, &r, 0.0);
        assert!(d.is_empty());
        assert!(!d.has_regression());
    }

    fn with_attr(mut r: RunReport, rows: &[(&str, u64)]) -> RunReport {
        use crate::perf::{AttributionSection, SymbolCounters};
        r.attribution = Some(AttributionSection {
            symbols: rows
                .iter()
                .map(|&(name, cycles)| SymbolCounters {
                    symbol: name.into(),
                    counters: propeller_sim::CounterSet {
                        cycles,
                        ..propeller_sim::CounterSet::default()
                    },
                })
                .collect(),
        });
        r
    }

    #[test]
    fn per_symbol_cycle_growth_regresses() {
        // Aggregate metrics identical — only one hot function silently
        // got slower. The per-symbol gate still catches it.
        let a = with_attr(report_with(&[("eval.speedup_pct", 5.0)]), &[("hot_a", 1000), ("hot_b", 500)]);
        let b = with_attr(report_with(&[("eval.speedup_pct", 5.0)]), &[("hot_a", 1200), ("hot_b", 480)]);
        let d = diff_reports(&a, &b, 0.5);
        assert!(d.has_regression());
        let hot_a = d.attribution_deltas.iter().find(|x| x.key == "hot_a").unwrap();
        assert!(hot_a.regression);
        assert_eq!(hot_a.direction, Direction::LowerBetter);
        // hot_b improved — reported, not a regression.
        let hot_b = d.attribution_deltas.iter().find(|x| x.key == "hot_b").unwrap();
        assert!(!hot_b.regression);
        assert!(d.render().contains("cycles[hot_a"));
        // Within tolerance: 20% growth passes a 25% gate.
        assert!(!diff_reports(&a, &b, 25.0).has_regression());
        // Self-diff stays empty.
        assert!(diff_reports(&a, &a, 0.0).is_empty());
    }

    #[test]
    fn attribution_gating_suspends_when_plans_differ() {
        let a = with_attr(report_with(&[]), &[("hot_a", 1000)]);
        let mut b = with_attr(report_with(&[]), &[("hot_a", 5000)]);
        b.fault_plan = "corrupt-lbr=1".into();
        let d = diff_reports(&a, &b, 0.0);
        assert!(!d.has_regression());
        assert_eq!(d.attribution_deltas[0].direction, Direction::Informational);
    }

    #[test]
    fn attribution_missing_sections_or_symbols_do_not_gate() {
        // Baseline without attribution (e.g. an old report): no gate.
        let a = report_with(&[]);
        let b = with_attr(report_with(&[]), &[("hot_a", 9999)]);
        assert!(diff_reports(&a, &b, 0.0).attribution_deltas.is_empty());
        // A symbol leaving the top-N is a ranking change, not a delta.
        let a = with_attr(report_with(&[]), &[("gone", 100)]);
        assert!(diff_reports(&a, &b, 0.0).attribution_deltas.is_empty());
    }

    #[test]
    fn trend_over_three_reports_gates_each_step() {
        let a = report_with(&[("eval.speedup_pct", 10.0), ("doctor.skew", 0.05)]);
        let b = report_with(&[("eval.speedup_pct", 9.8), ("doctor.skew", 0.05)]);
        let c = report_with(&[("eval.speedup_pct", 6.0), ("doctor.skew", 0.55)]);
        let reports = vec![
            ("r0.json".to_string(), &a),
            ("r1.json".to_string(), &b),
            ("r2.json".to_string(), &c),
        ];
        let t = trend_reports(&reports, 5.0);
        assert_eq!(t.steps.len(), 2);
        // r0 -> r1 drops speedup 2% (within 5%); r1 -> r2 drops ~39%.
        assert!(!t.steps[0].has_regression());
        assert!(t.steps[1].has_regression());
        assert!(t.has_regression());
        assert_eq!(
            t.series["eval.speedup_pct"],
            vec![Some(10.0), Some(9.8), Some(6.0)]
        );
        let rendered = t.render();
        assert!(rendered.contains("eval.speedup_pct"));
        assert!(rendered.contains("worsening"));
        assert!(rendered.contains("REGRESSION"));
    }

    #[test]
    fn trend_handles_missing_metrics_and_stays_clean_on_flat_series() {
        let mut a = report_with(&[("eval.speedup_pct", 4.0)]);
        a.metrics.insert("old.metric".into(), 1.0);
        let b = report_with(&[("eval.speedup_pct", 4.0)]);
        let reports = vec![("a".to_string(), &a), ("b".to_string(), &b)];
        let t = trend_reports(&reports, 0.0);
        assert!(!t.has_regression());
        assert_eq!(t.series["old.metric"], vec![Some(1.0), None]);
        assert!(t.render().contains('-'));
    }

    #[test]
    fn zero_baseline_uses_signed_full_delta() {
        let a = report_with(&[("mapper.unmapped_addrs", 0.0)]);
        let b = report_with(&[("mapper.unmapped_addrs", 3.0)]);
        let d = diff_reports(&a, &b, 50.0);
        assert!((d.deltas[0].delta_pct - 100.0).abs() < 1e-12);
        assert!(d.has_regression());
    }
}
