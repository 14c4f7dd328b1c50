//! Pinned golden digests of `run_wpa` — the in-tree twin of the
//! benchmark's `po_image` digest and of CI's
//! `cmp prov_j1/run_report.json ci/bench_baseline.json`.
//!
//! The constants were recorded from the commit *before* the Ext-TSP
//! inner loop was rewritten (PR 13). They cover the cluster map, the
//! global symbol order and every provenance `merge_gains` f64 bit, so
//! any change to the floating-point accumulation order, the tie-breaks
//! or the merge sequence shows up here without running the benchmark.

use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_linker::{link, LinkInput, LinkOptions};
use propeller_obj::ContentHash;
use propeller_profile::SamplingConfig;
use propeller_sim::{simulate, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_synth::{generate, spec_by_name, GenParams};
use propeller_wpa::exttsp::ExtTspParams;
use propeller_wpa::{cluster_map_to_text, run_wpa, WpaOptions, WpaOutput};

const GOLDEN_DEFAULT: u64 = 0x8287_db20_77ba_992d;
const GOLDEN_INTERPROC: u64 = 0x8d4b_069c_8205_5ebb;

struct Fixture {
    program: propeller_ir::Program,
    pm: propeller_linker::LinkedBinary,
    profile: propeller_profile::HardwareProfile,
}

fn fixture() -> Fixture {
    let spec = spec_by_name("clang").expect("clang is a built-in spec");
    let bench = generate(
        &spec,
        &GenParams {
            scale: 0.006,
            seed: 13,
            funcs_per_module: 12,
            entry_points: 4,
        },
    );
    let cg = CodegenOptions::with_labels();
    let inputs: Vec<LinkInput> = bench
        .program
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, &bench.program, &cg).expect("codegen");
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    let pm = link(&inputs, &LinkOptions::default()).expect("link");
    let image = ProgramImage::build(&bench.program, &pm.layout).expect("image");
    let mut load = Workload::new(bench.entries.clone(), 120_000);
    load.seed = 4;
    let report = simulate(
        &image,
        &load,
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig::default()),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    );
    Fixture {
        program: bench.program,
        pm,
        profile: report.profile.expect("sampling was on"),
    }
}

fn digest(fx: &Fixture, out: &WpaOutput) -> u64 {
    let mut bytes = cluster_map_to_text(&out.cluster_map, &fx.program).into_bytes();
    for name in out.symbol_order.names() {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(b'\n');
    }
    for f in &out.provenance.functions {
        bytes.extend_from_slice(f.func_symbol.as_bytes());
        for score in f
            .merge_gains
            .iter()
            .chain([&f.layout_score, &f.input_score])
        {
            bytes.extend_from_slice(&score.to_bits().to_le_bytes());
        }
    }
    ContentHash::of_bytes(&bytes).0
}

#[test]
fn run_wpa_matches_the_digests_pinned_before_the_exttsp_rewrite() {
    let fx = fixture();
    let run = |opts: &WpaOptions| run_wpa(&fx.program, &fx.pm, &fx.profile, opts);

    let default = run(&WpaOptions::default());
    let interproc = run(&WpaOptions::interprocedural());
    // The fixture must be big enough to mean something: many hot
    // functions, multi-block chains, and a section graph worth ordering.
    assert!(default.stats.hot_functions >= 20, "{:?}", default.stats);
    assert!(default.stats.hot_blocks >= 150, "{:?}", default.stats);
    let merges: usize = default
        .provenance
        .functions
        .iter()
        .map(|f| f.merge_gains.len())
        .sum();
    assert!(merges >= 100, "only {merges} merges committed");
    assert_ne!(
        default.symbol_order.names(),
        interproc.symbol_order.names(),
        "inter-procedural order must differ from hot-first"
    );

    let (d, i) = (digest(&fx, &default), digest(&fx, &interproc));
    assert_eq!(
        (d, i),
        (GOLDEN_DEFAULT, GOLDEN_INTERPROC),
        "got default {d:#018x}, interproc {i:#018x}"
    );

    // The digest is independent of the gain-evaluation worker count.
    let mut par = WpaOptions::interprocedural();
    par.exttsp = ExtTspParams {
        jobs: 4,
        ..par.exttsp
    };
    assert_eq!(digest(&fx, &run(&par)), GOLDEN_INTERPROC);
}
