//! Telemetry integration: a full pipeline run records the four-phase
//! span tree, the per-action children underneath it, and the headline
//! counters — and a disabled handle records nothing at all.

use propeller::{Propeller, PropellerOptions};
use propeller_integration_tests::small_benchmark;
use propeller_telemetry::{chrome::to_chrome_trace, report::render_text};
use propeller_telemetry::{Telemetry, TimeSeries, TraceData};

fn traced_run() -> TraceData {
    let gen = small_benchmark("clang", 0.01, 7);
    let mut p = Propeller::new(gen.program, gen.entries, PropellerOptions::default());
    p.set_telemetry(Telemetry::enabled());
    p.run_all().expect("pipeline");
    p.telemetry().drain()
}

const PHASES: [&str; 4] = [
    "phase1.compile",
    "phase2.build_metadata",
    "phase3.profile_and_analyze",
    "phase4.relink",
];

#[test]
fn run_all_records_exactly_the_four_phase_spans_as_roots() {
    let trace = traced_run();
    let roots = trace.roots();
    let names: Vec<&str> = roots.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, PHASES, "roots must be the four phases, in order");
}

#[test]
fn phase_spans_nest_their_action_children() {
    let trace = traced_run();

    // Phase 1's children are all distributed compile actions.
    let p1 = trace.find("phase1.compile").expect("phase 1 span");
    let kids = trace.children(p1.id);
    assert!(!kids.is_empty(), "phase 1 must have compile actions");
    assert!(kids.iter().all(|s| s.name.starts_with("action:compile ")));
    // Distributed actions carry modeled time, not local wall time.
    assert!(kids.iter().all(|s| s.dur_us == 0 && s.sim_secs > 0.0));

    // Phase 2 nests local codegen work, the codegen actions, the link
    // (with its stage children) and the link action.
    let p2 = trace.find("phase2.build_metadata").expect("phase 2 span");
    let kid_names: Vec<&str> = trace
        .children(p2.id)
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(kid_names.iter().any(|n| n.starts_with("codegen:")));
    assert!(kid_names.iter().any(|n| n.starts_with("action:codegen ")));
    assert!(kid_names.contains(&"link:app.pm"));
    assert!(kid_names.contains(&"action:link app.pm"));
    // The metadata link does not relax, so it has no relax stage.
    let link = trace.find("link:app.pm").expect("link span");
    let stages: Vec<&str> = trace
        .children(link.id)
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(stages, ["link.ordering", "link.emit"]);

    // Phase 3 nests the profiling simulation and WPA with its stages.
    let p3 = trace
        .find("phase3.profile_and_analyze")
        .expect("phase 3 span");
    let kid_names: Vec<&str> = trace
        .children(p3.id)
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(kid_names.contains(&"simulate"));
    assert!(kid_names.contains(&"wpa"));
    // Aggregation runs before WPA proper, so its span wraps the work as
    // a sibling just ahead of `wpa`, not an empty child of it.
    let aggregate = kid_names.iter().position(|n| *n == "wpa.aggregate_profile");
    let wpa_at = kid_names.iter().position(|n| *n == "wpa");
    assert!(aggregate.is_some() && aggregate < wpa_at, "{kid_names:?}");
    let wpa = trace.find("wpa").expect("wpa span");
    let stages = trace.children(wpa.id);
    assert!(stages.iter().any(|s| s.name == "wpa.intra_layout"));
    assert!(stages.iter().all(|s| s.name != "wpa.aggregate_profile"));

    // Phase 4 relinks with relaxation.
    let p4 = trace.find("phase4.relink").expect("phase 4 span");
    let kid_names: Vec<&str> = trace
        .children(p4.id)
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert!(kid_names.contains(&"link:app.propeller"));
    // The relink relaxes, so its relax stage is present.
    let relink = trace.find("link:app.propeller").expect("relink span");
    let stages: Vec<&str> = trace
        .children(relink.id)
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(stages, ["link.ordering", "link.relax", "link.emit"]);
}

#[test]
fn run_records_headline_counters() {
    let trace = traced_run();
    let m = &trace.metrics;
    assert_eq!(
        m.counter("cache.obj.hits") + m.counter("cache.obj.misses"),
        m.counter("cache.obj.lookups")
    );
    assert_eq!(
        m.counter("cache.ir.hits") + m.counter("cache.ir.misses"),
        m.counter("cache.ir.lookups")
    );
    assert!(m.counter("link.relax_iterations") > 0, "relax ran");
    assert!(m.counter("exttsp.merges") > 0, "ext-tsp merged chains");
    assert!(m.counter("codegen.modules") > 0);
    assert!(m.counter("executor.actions") > 0);
    assert!(m.histograms.contains_key("exttsp.merge_gain"));
}

#[test]
fn chrome_trace_of_a_run_is_well_formed() {
    let trace = traced_run();
    let json = to_chrome_trace(&trace, &TimeSeries::new());
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    for phase in PHASES {
        assert!(
            json.contains(&format!("\"name\":\"{phase}\"")),
            "chrome trace must contain {phase}"
        );
    }
    // Every complete event is a "X" record; counters are "C".
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"C\""));
    // The human rendering mentions every phase too.
    let text = render_text(&trace, 16);
    for phase in PHASES {
        assert!(text.contains(phase));
    }
}

#[test]
fn disabled_handle_records_nothing() {
    let gen = small_benchmark("clang", 0.01, 7);
    let mut p = Propeller::new(gen.program, gen.entries, PropellerOptions::default());
    p.run_all().expect("pipeline");
    let trace = p.telemetry().drain();
    assert!(trace.spans.is_empty());
    assert!(trace.metrics.counters.is_empty());
    assert!(trace.metrics.histograms.is_empty());
}
