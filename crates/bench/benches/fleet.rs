//! Criterion benchmarks of the fleet loop at the wall-clock benchmark's
//! `fleet_drift` sizes: cross-binary profile translation over one
//! release pair, and the whole `run_fleet`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_fleet::{run_fleet, translate_profile, FleetOptions};
use propeller_ir::Program;
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::{HardwareProfile, SamplingConfig};
use propeller_sim::{collect_profile, ProgramImage, UarchConfig, Workload};
use propeller_synth::{evolve, generate, spec_by_name, DriftParams, GenParams};
use propeller_wpa::AddressMapper;

const SCALE: f64 = 0.003;

/// The benchmark's options (`benchmark/src/workloads/fleet_drift.rs`).
fn fleet_options() -> FleetOptions {
    FleetOptions {
        releases: 4,
        machines: 4,
        drift: 0.05,
        seed: 5,
        history_window: 3,
        profile_budget: 60_000,
        eval_budget: 80_000,
        jobs: 1,
        ..FleetOptions::default()
    }
}

fn metadata_binary(p: &Program) -> LinkedBinary {
    let inputs: Vec<LinkInput> = p
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, &CodegenOptions::with_labels()).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    link(&inputs, &LinkOptions::default()).unwrap()
}

/// Release 0's four machine profiles translated into release 1's
/// binary, the old binary's mapper built outside the timed body.
fn bench_translate(c: &mut Criterion) {
    let opts = fleet_options();
    let spec = spec_by_name("clang").unwrap();
    let old = generate(
        &spec,
        &GenParams {
            scale: SCALE,
            ..GenParams::for_spec(&spec)
        },
    );
    let new = evolve(
        &old,
        &DriftParams {
            drift: opts.drift,
            seed: opts.seed,
            release: 1,
        },
    );
    let (old_bin, new_bin) = (metadata_binary(&old.program), metadata_binary(&new.program));
    let image = ProgramImage::build(&old.program, &old_bin.layout).unwrap();
    // Zipf traffic shares, as the fleet splits its profile budget.
    let profiles: Vec<HardwareProfile> = (1..=opts.machines as u64)
        .map(|m| {
            let mut load = Workload::new(old.entries.clone(), opts.profile_budget * 12 / 25 / m);
            load.seed = opts.seed + m;
            collect_profile(&image, &load, &UarchConfig::default(), SamplingConfig::default()).0
        })
        .collect();
    let mapper = AddressMapper::from_binary(&old_bin);
    let records: usize = profiles.iter().map(HardwareProfile::num_records).sum();

    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records as u64));
    group.bench_function("translate_profile", |b| {
        b.iter(|| {
            profiles
                .iter()
                .map(|p| translate_profile(p, &mapper, &new_bin).1.records_dropped)
                .sum::<u64>()
        });
    });
    group.finish();
}

fn bench_run_fleet(c: &mut Criterion) {
    let spec = spec_by_name("clang").unwrap();
    let opts = fleet_options();
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.bench_function("run_fleet", |b| {
        b.iter(|| run_fleet(&spec, SCALE, &opts).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_translate, bench_run_fleet);
criterion_main!(benches);
