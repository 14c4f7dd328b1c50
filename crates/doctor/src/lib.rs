//! # The Propeller doctor: profile-quality audits and run diffs
//!
//! Propeller's whole-program analyzer silently tolerates bad inputs:
//! samples that map to no block are dropped, functions whose symbols
//! don't resolve vanish from the address map, and a stale profile
//! produces a confidently wrong layout. This crate makes those failure
//! modes *measurable*:
//!
//! * [`audit`] — the math: per-run sample coverage of hot text,
//!   unmapped-address rate, fall-through inference confidence, the
//!   sample-capture ratio (truncation detector), and a stale-profile
//!   skew score obtained by re-simulating the profiled workload on the
//!   optimized binary;
//! * [`doctor`] — WARN/FAIL thresholds over an audit, rendered as the
//!   `propeller_cli doctor` report;
//! * [`report`] — the machine-readable [`RunReport`] JSON artifact:
//!   deterministic metrics, modeled wall times, full layout provenance
//!   (per hot function: cluster decisions, Ext-TSP merge gains, final
//!   symbol-order positions), and an embedded telemetry snapshot;
//! * [`diff`] — structural + metric diffs between two `RunReport`s
//!   with per-direction regression tolerances; `propeller_cli diff` is
//!   the CI bench gate built on it;
//! * [`perf`] — `perf report`/`perf annotate` over the simulator's
//!   symbol attribution: the differential baseline/Propeller/BOLT
//!   top-N table, the per-function block walk joined against Ext-TSP
//!   provenance, and the [`AttributionSection`] rows that `RunReport`
//!   embeds and `diff` gates per-symbol.

pub mod audit;
pub mod diff;
pub mod doctor;
pub mod perf;
pub mod policy;
pub mod provenance;
mod records;
pub mod report;
pub mod service;
pub mod slo;

pub use audit::{
    audit_pipeline, audit_profile_with_reference, layout_skew, ExpectedLoad, ProfileAudit,
};
pub use diff::{diff_reports, DiffReport, Direction, LayoutChange, MetricDelta};
pub use doctor::{
    degradation_findings, diagnose, render, wall_clock_findings, worst, Finding, Severity,
};
pub use perf::{render_annotate, render_perf_report, AttributionSection, SymbolCounters};
pub use policy::{RelinkDecision, RelinkPolicy};
pub use provenance::{
    diff_docs, provenance_findings, render_explain, render_layout_diff, MovedSymbol,
    ProvenanceDiff, ProvenanceDoc, ProvenanceFunction,
};
pub use report::RunReport;
pub use service::service_findings;
pub use slo::{evaluate_slo, SloConfig, SloObjective, SloParseError, SloReport};
