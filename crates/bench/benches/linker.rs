//! Criterion benchmarks of link and relaxation throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_linker::{link, LinkInput, LinkOptions};
use propeller_synth::{generate, spec_by_name, GenParams};

fn inputs(spec: &str, scale: f64, opts: &CodegenOptions) -> Vec<LinkInput> {
    let spec = spec_by_name(spec).unwrap();
    let g = generate(
        &spec,
        &GenParams {
            scale,
            seed: 3,
            funcs_per_module: 12,
            entry_points: 2,
        },
    );
    g.program
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, &g.program, opts).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect()
}

fn bench_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("linker");
    group.sample_size(10);
    let base_inputs = inputs("541.leela", 0.4, &CodegenOptions::baseline());
    group.bench_function("baseline_link", |b| {
        b.iter(|| link(&base_inputs, &LinkOptions::default()).unwrap());
    });
    let labels_inputs = inputs("541.leela", 0.4, &CodegenOptions::with_labels());
    group.bench_function("metadata_link", |b| {
        b.iter(|| link(&labels_inputs, &LinkOptions::default()).unwrap());
    });
    group.finish();
}

/// The same spec linked at two scales 4x apart: with a linear linker
/// the ms/iter ratio is ~4, and the id's section count turns either
/// reading into a per-section cost. (The larger scale is close to the
/// wall-clock benchmark's `cold_build` program.)
fn bench_link_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("link_scaling");
    group.sample_size(10);
    for scale in [0.008, 0.032] {
        let inputs = inputs("clang", scale, &CodegenOptions::with_labels());
        let sections: usize = inputs.iter().map(|i| i.object.sections().len()).sum();
        group.bench_with_input(
            BenchmarkId::new("metadata_link", format!("{sections}_sections")),
            &inputs,
            |b, inputs| b.iter(|| link(inputs, &LinkOptions::default()).unwrap()),
        );
    }
    group.finish();
}

fn bench_codegen(c: &mut Criterion) {
    let spec = spec_by_name("541.leela").unwrap();
    let g = generate(
        &spec,
        &GenParams {
            scale: 0.4,
            seed: 3,
            funcs_per_module: 12,
            entry_points: 2,
        },
    );
    let mut group = c.benchmark_group("codegen");
    group.sample_size(10);
    group.bench_function("module_baseline", |b| {
        b.iter(|| {
            for m in g.program.modules() {
                codegen_module(m, &g.program, &CodegenOptions::baseline()).unwrap();
            }
        });
    });
    group.bench_function("module_labels", |b| {
        b.iter(|| {
            for m in g.program.modules() {
                codegen_module(m, &g.program, &CodegenOptions::with_labels()).unwrap();
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_link, bench_link_scaling, bench_codegen);
criterion_main!(benches);
