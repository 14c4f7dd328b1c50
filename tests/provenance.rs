//! The provenance gate: arming layout-decision provenance must explain
//! everything and change nothing.
//!
//! An armed run records every Ext-TSP candidate merge (accepted and
//! rejected), the profile edges that funded each CFG edge weight, and
//! the linker's final placements — and must still produce a
//! `run_report.json` bit-identical to an unarmed run, because the CI
//! bench gate compares against an unarmed baseline. The document
//! itself must be bit-identical at every `--jobs` count, and replaying
//! its merge steps must reconstruct the exact emitted block order.

use propeller::{Propeller, PropellerOptions};
use propeller_doctor::{
    diff_docs, provenance_findings, render_explain, ProvenanceDoc, RunReport, Severity,
};
use propeller_integration_tests::small_benchmark;
use propeller_telemetry::Telemetry;

/// Runs the full pipeline and returns it plus its `run_report.json`
/// contents (telemetry snapshot embedded, like the CLI writes it).
fn run_pipeline(bench: &str, scale: f64, seed: u64, jobs: usize, armed: bool) -> (Propeller, String) {
    let gen = small_benchmark(bench, scale, seed);
    let opts = PropellerOptions {
        jobs,
        seed,
        provenance: armed,
        ..PropellerOptions::default()
    };
    let mut p = Propeller::new(gen.program, gen.entries, opts);
    p.set_telemetry(Telemetry::enabled());
    let report = p.run_all().expect("pipeline completes");
    let eval = p.evaluate(120_000).expect("phases ran");
    let audit = propeller_doctor::audit_pipeline(&p).expect("audit runs");
    let metrics = p.telemetry().drain().metrics;
    let run_report = RunReport::collect(
        bench,
        scale,
        seed,
        &p,
        &report,
        Some(&eval),
        Some(&audit),
        Some(metrics),
    );
    (p, run_report.to_json_string())
}

/// Assembles the provenance document the way `propeller_cli run
/// --provenance` does.
fn doc_for(p: &Propeller, bench: &str, scale: f64, seed: u64) -> ProvenanceDoc {
    ProvenanceDoc::collect(bench, scale, seed, p, None)
}

const BENCH: &str = "clang";
const SCALE: f64 = 0.004;
const SEED: u64 = 77;

#[test]
fn armed_run_report_is_bit_identical_to_unarmed() {
    let (_, armed) = run_pipeline(BENCH, SCALE, SEED, 1, true);
    let (_, unarmed) = run_pipeline(BENCH, SCALE, SEED, 1, false);
    assert_eq!(
        armed, unarmed,
        "arming provenance changed run_report.json — the bench-gate baseline is unarmed"
    );
}

#[test]
fn provenance_document_is_bit_identical_across_job_counts() {
    let (p1, _) = run_pipeline(BENCH, SCALE, SEED, 1, true);
    let (p8, _) = run_pipeline(BENCH, SCALE, SEED, 8, true);
    let a = doc_for(&p1, BENCH, SCALE, SEED).to_json_string();
    let b = doc_for(&p8, BENCH, SCALE, SEED).to_json_string();
    assert_eq!(a, b, "layout_provenance.json differs between --jobs 1 and --jobs 8");
}

#[test]
fn replaying_merge_steps_reconstructs_the_emitted_order() {
    let (p, _) = run_pipeline(BENCH, SCALE, SEED, 1, true);
    let doc = doc_for(&p, BENCH, SCALE, SEED);
    assert!(!doc.functions.is_empty(), "armed run recorded no functions");
    doc.validate_replay().expect("replay reconstructs every emitted order");
    // The record is not vacuous: at least one function committed merges
    // and queued a rejected alternative behind an accepted step.
    assert!(
        doc.functions.iter().any(|f| !f.steps.is_empty()),
        "no function recorded any merge step"
    );
    assert!(
        doc.functions
            .iter()
            .flat_map(|f| &f.steps)
            .any(|s| s.rejected.is_some()),
        "no merge step captured its best rejected alternative"
    );
}

#[test]
fn document_round_trips_and_self_diff_is_empty() {
    let (p, _) = run_pipeline(BENCH, SCALE, SEED, 1, true);
    let doc = doc_for(&p, BENCH, SCALE, SEED);
    let back = ProvenanceDoc::parse(&doc.to_json_string()).expect("parses back");
    assert_eq!(back, doc, "JSON round trip altered the document");
    let d = diff_docs(&doc, &back);
    assert!(d.is_empty(), "self-diff is not structurally empty: {d:?}");
}

#[test]
fn placements_are_a_dense_order_with_increasing_addresses() {
    let (p, _) = run_pipeline(BENCH, SCALE, SEED, 1, true);
    let doc = doc_for(&p, BENCH, SCALE, SEED);
    assert!(!doc.placements.is_empty(), "linker recorded no placements");
    for (i, pl) in doc.placements.iter().enumerate() {
        assert_eq!(pl.order as usize, i, "placement order is not dense");
        assert!(pl.final_size <= pl.input_size, "relaxation grew {}", pl.symbol);
        if i > 0 {
            assert!(
                pl.addr > doc.placements[i - 1].addr,
                "placement addresses are not increasing at {}",
                pl.symbol
            );
        }
    }
}

#[test]
fn explain_names_mass_merges_rejections_and_address() {
    let (p, _) = run_pipeline(BENCH, SCALE, SEED, 1, true);
    let doc = doc_for(&p, BENCH, SCALE, SEED);
    let f = doc
        .functions
        .iter()
        .filter(|f| !f.steps.is_empty())
        .max_by_key(|f| f.steps.len())
        .expect("some function committed merges");
    let text = render_explain(&doc, &f.func_symbol, None, None).expect("explains");
    assert!(text.contains("sample mass"), "missing sample mass: {text}");
    assert!(text.contains("edge funding"), "missing edge funding: {text}");
    assert!(text.contains("gain"), "missing merge gains: {text}");
    assert!(
        text.contains("best rejected") || text.contains("no other positive-gain"),
        "missing the rejected alternative: {text}"
    );
    assert!(text.contains("placed:") && text.contains("0x"), "missing final address: {text}");
}

#[test]
fn doctor_findings_report_full_coverage_on_an_armed_run() {
    let (p, _) = run_pipeline(BENCH, SCALE, SEED, 1, true);
    let doc = doc_for(&p, BENCH, SCALE, SEED);
    let wpa = p.wpa_output().expect("phase 3 ran");
    let findings = provenance_findings(&wpa.provenance, &doc);
    assert!(!findings.is_empty(), "no provenance findings rendered");
    for f in &findings {
        assert_eq!(
            f.severity,
            Severity::Ok,
            "armed run should pass the provenance audit: {} — {}",
            f.metric,
            f.message
        );
    }
}
